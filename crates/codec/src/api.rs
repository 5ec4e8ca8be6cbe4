//! Top-level encode/decode API and the bitstream container.
//!
//! [`encode`] runs the full pipeline: optional first pass, GOP
//! planning, altref insertion, per-frame rate control, frame coding,
//! and container serialization. [`decode`] parses the container,
//! verifies per-frame checksums (the integrity checks §4.4's blast-
//! radius mitigation relies on), and reproduces the encoder's
//! reconstructions exactly.

use crate::config::{EncoderConfig, PassMode, RateControl, ALTREF_PERIOD};
use crate::frame_coder::{decode_frame, encode_frame, RefSlots};
use crate::rc::{first_pass, plan_frame_kinds, RateController};
use crate::stats::CodingStats;
use crate::tempfilter::temporal_filter_with_stats;
use crate::types::{CodecError, FrameKind, Profile, Qp};
use vcu_media::quality::psnr_y;
use vcu_media::{Frame, Video};
use vcu_telemetry::Registry;

const MAGIC: &[u8; 4] = b"VCSM";
const VERSION: u8 = 1;
/// Size of the serialized container header in bytes.
const HEADER_LEN: usize = 18;
/// Largest frame width or height, in pixels, that [`encode`] accepts and
/// [`decode`] allocates for (2160p's 3,840 fits). The decoder sizes its
/// frame buffers from the header before reading a payload byte, so this
/// bounds what a hostile 18-byte header can make it allocate.
pub(crate) const MAX_DIM: usize = 4_096;

/// Container byte of each profile: its index here.
const PROFILES: [Profile; 2] = [Profile::H264Sim, Profile::Vp9Sim];
/// Container byte of each frame kind: its index here.
const FRAME_KINDS: [FrameKind; 3] = [FrameKind::Key, FrameKind::Inter, FrameKind::AltRef];

/// The container byte of `v`: its index in `table`.
fn byte_of<T: PartialEq>(table: &[T], v: T) -> u8 {
    table
        .iter()
        .position(|t| *t == v)
        .expect("every variant has a container byte") as u8
}

/// Metadata for one coded frame in the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodedFrameInfo {
    /// Frame kind.
    pub kind: FrameKind,
    /// Payload size in bytes (excluding per-frame container overhead).
    pub bytes: u32,
}

/// A complete encoded video.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// Frame rate of the displayable sequence.
    pub fps: f64,
    /// Serialized container bytes.
    pub bytes: Vec<u8>,
    /// Per-coded-frame metadata (includes hidden altref frames).
    pub frames: Vec<CodedFrameInfo>,
    /// Work metering for the encode.
    pub stats: CodingStats,
}

impl Encoded {
    /// Average bitrate of the displayable stream in bits/second.
    pub fn bitrate_bps(&self) -> f64 {
        let displayable = self
            .frames
            .iter()
            .filter(|f| f.kind.is_displayable())
            .count();
        if displayable == 0 {
            return 0.0;
        }
        let total_bits: u64 = self.frames.iter().map(|f| f.bytes as u64 * 8).sum();
        total_bits as f64 / (displayable as f64 / self.fps)
    }

    /// Total compressed size in bytes (container included).
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// Result of decoding: the video plus decode-side work metering.
#[derive(Debug, Clone)]
pub struct Decoded {
    /// Displayable frames.
    pub video: Video,
    /// Decode work metering.
    pub stats: CodingStats,
}

/// Serializes the fixed-size container header; frame records follow it
/// directly.
fn container_header(profile: Profile, w: u16, h: u16, fps: f32, count: u32) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN);
    bytes.extend_from_slice(MAGIC);
    bytes.push(VERSION);
    bytes.push(byte_of(&PROFILES, profile));
    bytes.extend_from_slice(&w.to_le_bytes());
    bytes.extend_from_slice(&h.to_le_bytes());
    bytes.extend_from_slice(&fps.to_le_bytes());
    bytes.extend_from_slice(&count.to_le_bytes());
    debug_assert_eq!(bytes.len(), HEADER_LEN);
    bytes
}

/// `fps` as the container header stores it: an `f32` the decoder
/// accepts, so finite and positive.
///
/// # Errors
///
/// Returns [`CodecError::InvalidConfig`] if `fps` overflows or
/// underflows to a value the decoder would reject.
fn container_fps(fps: f64) -> Result<f32, CodecError> {
    let narrowed = fps as f32;
    if narrowed.is_finite() && narrowed > 0.0 {
        Ok(narrowed)
    } else {
        Err(CodecError::InvalidConfig(
            "fps does not fit the container's f32",
        ))
    }
}

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C9DC5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(16777619);
    }
    h
}

/// Encodes a video.
///
/// # Errors
///
/// Returns [`CodecError::InvalidConfig`] for invalid configurations.
pub fn encode(cfg: &EncoderConfig, video: &Video) -> Result<Encoded, CodecError> {
    encode_traced(cfg, video, &Registry::disabled())
}

/// Like [`encode`], additionally recording per-frame observability into
/// `telemetry`: payload bits, a cycles-per-macroblock proxy (work-unit
/// delta over the frame's macroblock count), and luma PSNR of the
/// reconstruction. All three land in histograms
/// (`codec.frame.{bits,cycles_per_mb,psnr_y}`) plus a `codec.frames`
/// counter. With a disabled registry this is exactly [`encode`] — the
/// PSNR computation is skipped, not just discarded.
///
/// # Errors
///
/// Returns [`CodecError::InvalidConfig`] for invalid configurations,
/// or for an `fps` the container's `f32` cannot carry.
pub fn encode_traced(
    cfg: &EncoderConfig,
    video: &Video,
    telemetry: &Registry,
) -> Result<Encoded, CodecError> {
    cfg.validate()?;
    let fps = container_fps(video.fps)?;
    let n = video.frames.len();
    let (w, h) = (video.width(), video.height());
    if w > MAX_DIM || h > MAX_DIM {
        return Err(CodecError::InvalidConfig("dimensions exceed MAX_DIM"));
    }

    // First pass: needed for bitrate two-pass modes and adaptive GOP.
    let adaptive_gop = cfg.toolset.adaptive_gop();
    let needs_fp = adaptive_gop
        || matches!(
            cfg.rc,
            RateControl::Bitrate { pass, .. } if pass.has_first_pass()
        );
    let fp_stats = if needs_fp {
        first_pass(video)
    } else {
        Vec::new()
    };

    let kinds = plan_frame_kinds(
        n,
        if adaptive_gop && !fp_stats.is_empty() {
            Some(&fp_stats)
        } else {
            None
        },
    );

    let pass = match cfg.rc {
        RateControl::ConstQp(_) => PassMode::TwoPassOffline,
        RateControl::Bitrate { pass, .. } => pass,
    };
    let mut rc = RateController::new(cfg, video.fps, fp_stats);

    let mut stats = CodingStats::new();
    let mut refs = RefSlots::new();
    let mut infos = Vec::new();
    let mut payloads: Vec<(FrameKind, Qp, Vec<u8>)> = Vec::new();
    let altref_active = cfg.altref_active();
    let mut since_altref = usize::MAX / 2;
    // Rolling mean of recent inter-frame payload sizes, used to reject
    // altrefs that cost more than they can recoup (unpredictable
    // content makes the filtered frame keyframe-expensive).
    let mut inter_bytes_mean: Option<f64> = None;

    for (i, &kind) in kinds.iter().enumerate() {
        if kind == FrameKind::Key {
            since_altref = usize::MAX / 2; // force altref right after key
        }

        // Altref insertion: a temporally filtered future frame, coded
        // hidden at a lower QP, refreshing the ALTREF slot.
        if altref_active && kind == FrameKind::Inter && since_altref >= ALTREF_PERIOD {
            let center = (i + ALTREF_PERIOD / 2).min(n - 1);
            let lookahead = pass.lookahead(i, n);
            if center > i && center - i <= lookahead {
                let window: Vec<&Frame> =
                    video.frames[i..=(center + 1).min(n - 1)].iter().collect();
                let (filtered, fstats) =
                    temporal_filter_with_stats(&window, center - i, &mut stats);
                // Gate 1: the filter must have found temporally
                // predictable content; otherwise the altref is just an
                // expensive copy of one source frame.
                if fstats.mean_weight >= 0.55 {
                    let aqp = rc.frame_qp(i, FrameKind::AltRef, n).offset(-4);
                    let (payload, recon) =
                        encode_frame(cfg, &filtered, FrameKind::AltRef, aqp, &refs, &mut stats);
                    // Gate 2: reject altrefs costing much more than the
                    // inter frames they would have to improve.
                    let affordable = inter_bytes_mean
                        .map(|m| (payload.len() as f64) <= m * 2.5)
                        .unwrap_or(true);
                    if affordable {
                        refs.apply_refresh(FrameKind::AltRef, &recon);
                        infos.push(CodedFrameInfo {
                            kind: FrameKind::AltRef,
                            bytes: payload.len() as u32,
                        });
                        payloads.push((FrameKind::AltRef, aqp, payload));
                        since_altref = 0;
                    } else {
                        stats.bits -= payload.len() as u64 * 8; // not emitted
                        since_altref = 0; // don't retry every frame
                    }
                } else {
                    since_altref = 0;
                }
            }
        }
        since_altref = since_altref.saturating_add(1);

        let base_qp = rc.frame_qp(i, kind, n);
        let qp = match kind {
            FrameKind::Key => base_qp.offset(cfg.toolset.keyframe_qp_boost()),
            FrameKind::Inter | FrameKind::AltRef => base_qp,
        };
        let work_before = stats.work_units();
        let (payload, recon) = encode_frame(cfg, &video.frames[i], kind, qp, &refs, &mut stats);
        if telemetry.is_enabled() {
            let mbs = (w.div_ceil(16) * h.div_ceil(16)) as f64;
            telemetry.counter_inc("codec.frames");
            telemetry.observe("codec.frame.bits", payload.len() as f64 * 8.0);
            telemetry.observe(
                "codec.frame.cycles_per_mb",
                (stats.work_units() - work_before) / mbs.max(1.0),
            );
            telemetry.observe("codec.frame.psnr_y", psnr_y(&video.frames[i], &recon));
        }
        refs.apply_refresh(kind, &recon);
        rc.update(payload.len() as u64 * 8);
        if kind == FrameKind::Inter {
            let b = payload.len() as f64;
            inter_bytes_mean = Some(match inter_bytes_mean {
                Some(m) => m * 0.7 + b * 0.3,
                None => b,
            });
        }
        infos.push(CodedFrameInfo {
            kind,
            bytes: payload.len() as u32,
        });
        payloads.push((kind, qp, payload));
    }

    // Serialize container.
    let mut bytes = container_header(cfg.profile, w as u16, h as u16, fps, payloads.len() as u32);
    for (kind, qp, payload) in &payloads {
        bytes.push(byte_of(&FRAME_KINDS, *kind));
        bytes.push(qp.value());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    }

    Ok(Encoded {
        fps: video.fps,
        bytes,
        frames: infos,
        stats,
    })
}

/// Encodes several independent videos with one configuration as one
/// scoped fork-join batch ([`vcu_exec::pool`]), at most `cfg.threads`
/// of them concurrently.
///
/// Results come back in input order and each is byte-identical to a
/// sequential [`encode`] of that video, for every thread count —
/// threads share nothing, the per-video pipeline is deterministic, and
/// the batch returns results in index order whichever thread ran which
/// video.
///
/// # Errors
///
/// Returns the first [`CodecError`] (by input order) if any video fails
/// to encode.
///
/// # Panics
///
/// If an encode worker panics, every sibling video still encodes to
/// completion first (nothing aborts mid-batch), then the panic of the
/// lowest-index failed video is re-raised on the caller.
pub fn encode_batch(cfg: &EncoderConfig, videos: &[Video]) -> Result<Vec<Encoded>, CodecError> {
    encode_batch_with(cfg, videos, encode)
}

/// [`encode_batch`] over an injectable per-video encode function —
/// the seam tests use to exercise worker-panic handling with a
/// deliberately faulting kernel.
fn encode_batch_with(
    cfg: &EncoderConfig,
    videos: &[Video],
    enc: impl Fn(&EncoderConfig, &Video) -> Result<Encoded, CodecError> + Sync,
) -> Result<Vec<Encoded>, CodecError> {
    let enc = &enc;
    vcu_exec::pool()
        .run_batch(
            cfg.threads.max(1),
            videos.iter().map(|v| move || enc(cfg, v)).collect(),
        )
        .into_iter()
        .collect()
}

/// Decodes a container produced by [`encode`].
///
/// # Errors
///
/// Returns [`CodecError`] on malformed headers, checksum mismatches, or
/// corrupt frame payloads.
pub fn decode(bytes: &[u8]) -> Result<Decoded, CodecError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC.as_slice() {
        return Err(CodecError::CorruptBitstream("bad magic"));
    }
    if r.u8()? != VERSION {
        return Err(CodecError::Unsupported("unknown container version"));
    }
    let profile = *PROFILES
        .get(r.u8()? as usize)
        .ok_or(CodecError::Unsupported("unknown profile"))?;
    let w = r.u16()? as usize;
    let h = r.u16()? as usize;
    let fps = r.f32()? as f64;
    let coded_frames = r.u32()? as usize;
    if w == 0 || h == 0 || !w.is_multiple_of(2) || !h.is_multiple_of(2) {
        return Err(CodecError::CorruptBitstream("invalid dimensions"));
    }
    if w > MAX_DIM || h > MAX_DIM {
        return Err(CodecError::Unsupported("dimensions exceed MAX_DIM"));
    }
    if !(fps.is_finite() && fps > 0.0) {
        return Err(CodecError::CorruptBitstream("invalid fps"));
    }

    let mut stats = CodingStats::new();
    let mut refs = RefSlots::new();
    let mut frames = Vec::new();
    for _ in 0..coded_frames {
        let kind = *FRAME_KINDS
            .get(r.u8()? as usize)
            .ok_or(CodecError::CorruptBitstream("unknown frame kind"))?;
        let qp = Qp::new(r.u8()?);
        let len = r.u32()? as usize;
        let payload = r.take(len)?;
        let checksum = { r.u32()? };
        if fnv1a(payload) != checksum {
            return Err(CodecError::CorruptBitstream("frame checksum mismatch"));
        }
        let recon = decode_frame(profile, payload, kind, qp, &refs, (w, h), &mut stats)?;
        refs.apply_refresh(kind, &recon);
        if kind.is_displayable() {
            frames.push(recon);
        }
    }
    if frames.is_empty() {
        return Err(CodecError::CorruptBitstream("no displayable frames"));
    }
    Ok(Decoded {
        video: Video::new(frames, fps),
        stats,
    })
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.bytes.len() {
            return Err(CodecError::CorruptBitstream("container truncated"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PassMode, Toolset, TuningLevel};
    use vcu_media::quality::psnr_y_video;
    use vcu_media::synth::{ContentClass, SynthSpec};
    use vcu_media::Resolution;

    fn clip(frames: usize, content: ContentClass) -> Video {
        SynthSpec::new(Resolution::R144, frames, content, 21).generate()
    }

    #[test]
    fn encode_decode_round_trip_h264() {
        let v = clip(6, ContentClass::talking_head());
        let cfg = EncoderConfig::const_qp(Profile::H264Sim, Qp::new(28));
        let e = encode(&cfg, &v).unwrap();
        let d = decode(&e.bytes).unwrap();
        assert_eq!(d.video.frames.len(), 6);
        let p = psnr_y_video(&v, &d.video);
        assert!(p > 28.0, "qp28 psnr too low: {p}");
    }

    #[test]
    fn encode_decode_round_trip_vp9_with_altref() {
        let v = clip(20, ContentClass::talking_head());
        let cfg = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(28));
        let e = encode(&cfg, &v).unwrap();
        // Altref frames are hidden: decode returns exactly 20 frames.
        assert!(e.frames.iter().any(|f| f.kind == FrameKind::AltRef));
        let d = decode(&e.bytes).unwrap();
        assert_eq!(d.video.frames.len(), 20);
    }

    #[test]
    fn vp9_outcompresses_h264_at_iso_quality() {
        // Core Fig. 7 relationship: at matched QP the VP9-like profile
        // should spend fewer bits for comparable PSNR on predictable
        // content (bigger blocks + more refs + altref).
        let v = clip(12, ContentClass::ugc());
        let h = encode(&EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30)), &v).unwrap();
        let g = encode(&EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30)), &v).unwrap();
        let dh = decode(&h.bytes).unwrap();
        let dg = decode(&g.bytes).unwrap();
        let ph = psnr_y_video(&v, &dh.video);
        let pg = psnr_y_video(&v, &dg.video);
        let bits_h = h.bitrate_bps();
        let bits_g = g.bitrate_bps();
        // Accept the win in either axis; strict BD-rate is tested in
        // the integration suite.
        assert!(
            (bits_g < bits_h && pg > ph - 1.0) || (pg > ph && bits_g < bits_h * 1.1),
            "vp9 {bits_g:.0}bps/{pg:.2}dB vs h264 {bits_h:.0}bps/{ph:.2}dB"
        );
    }

    #[test]
    fn bitrate_mode_hits_target() {
        let v = clip(24, ContentClass::ugc());
        let target = 600_000u64;
        let cfg = EncoderConfig::bitrate(Profile::H264Sim, target, PassMode::TwoPassOffline);
        let e = encode(&cfg, &v).unwrap();
        let achieved = e.bitrate_bps();
        let err = (achieved - target as f64).abs() / target as f64;
        assert!(
            err < 0.35,
            "bitrate {achieved:.0} vs target {target} (err {err:.2})"
        );
    }

    #[test]
    fn hardware_launch_worse_than_software() {
        let v = clip(10, ContentClass::ugc());
        let qp = Qp::new(32);
        let sw = encode(&EncoderConfig::const_qp(Profile::H264Sim, qp), &v).unwrap();
        let hw = encode(
            &EncoderConfig::const_qp(Profile::H264Sim, qp).with_hardware(TuningLevel::LAUNCH),
            &v,
        )
        .unwrap();
        let dsw = decode(&sw.bytes).unwrap();
        let dhw = decode(&hw.bytes).unwrap();
        let psw = psnr_y_video(&v, &dsw.video);
        let phw = psnr_y_video(&v, &dhw.video);
        // At matched QP the hardware toolset should not beat software
        // on both axes simultaneously.
        let sw_rate = sw.bitrate_bps();
        let hw_rate = hw.bitrate_bps();
        assert!(
            !(hw_rate < sw_rate && phw > psw),
            "launch hardware dominates software: {hw_rate:.0}bps/{phw:.2}dB vs {sw_rate:.0}bps/{psw:.2}dB"
        );
    }

    #[test]
    fn container_corruption_detected() {
        let v = clip(3, ContentClass::talking_head());
        let cfg = EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30));
        let mut e = encode(&cfg, &v).unwrap();
        let mid = e.bytes.len() / 2;
        e.bytes[mid] ^= 0xFF;
        assert!(decode(&e.bytes).is_err(), "corruption must be detected");
    }

    #[test]
    fn truncated_container_detected() {
        let v = clip(2, ContentClass::talking_head());
        let cfg = EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30));
        let e = encode(&cfg, &v).unwrap();
        let cut = &e.bytes[..e.bytes.len() - 10];
        assert!(decode(cut).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            decode(b"NOPE-not-a-stream"),
            Err(CodecError::CorruptBitstream(_))
        ));
    }

    #[test]
    fn encoder_stats_are_populated() {
        let v = clip(4, ContentClass::ugc());
        let cfg = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30));
        let e = encode(&cfg, &v).unwrap();
        assert_eq!(e.stats.frames as usize, e.frames.len());
        assert!(e.stats.sad_pixels > 0);
        assert!(e.stats.transform_pixels > 0);
        assert!(e.stats.bits > 0);
        assert!(e.stats.work_units() > 0.0);
        // Decode does strictly less work than encode.
        let d = decode(&e.bytes).unwrap();
        assert!(d.stats.work_units() < e.stats.work_units() / 2.0);
    }

    #[test]
    fn traced_encode_records_per_frame_metrics() {
        let v = clip(6, ContentClass::talking_head());
        let cfg = EncoderConfig::const_qp(Profile::H264Sim, Qp::new(28));
        let reg = Registry::new();
        let traced = encode_traced(&cfg, &v, &reg).unwrap();
        // Observation must not perturb the bitstream.
        let plain = encode(&cfg, &v).unwrap();
        assert_eq!(traced.bytes, plain.bytes);
        // Six displayable frames pass through the main coding loop.
        assert_eq!(reg.counter("codec.frames"), 6);
        let bits = reg.histogram("codec.frame.bits").unwrap();
        assert_eq!(bits.count, 6);
        assert!(bits.sum > 0.0);
        let cycles = reg.histogram("codec.frame.cycles_per_mb").unwrap();
        assert!(cycles.min > 0.0, "every frame does some work");
        let psnr = reg.histogram("codec.frame.psnr_y").unwrap();
        assert!(psnr.min > 20.0, "qp28 recon quality: {}", psnr.min);
    }

    #[test]
    fn unbalanced_batch_is_thread_count_invariant() {
        // One clip four times its siblings' length: the small clips
        // finish on whichever worker is free, in any order.
        // The results must still come back per input, byte for byte.
        let mut videos =
            vec![SynthSpec::new(Resolution::R144, 4, ContentClass::ugc(), 9).generate()];
        for seed in 30..34 {
            videos.push(SynthSpec::new(Resolution::R144, 1, ContentClass::ugc(), seed).generate());
        }
        let base = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(32));
        let streams = |threads: usize| -> Vec<Vec<u8>> {
            let batch = encode_batch(&base.with_threads(threads), &videos).unwrap();
            batch.into_iter().map(|e| e.bytes).collect()
        };
        let seq = streams(1);
        assert_eq!(seq.len(), videos.len());
        assert!(seq == streams(4), "threads=4 changed a bitstream");
    }

    #[test]
    fn batch_worker_panic_joins_all_siblings_then_propagates_lowest_index() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A panicking encode kernel (injected via the same seam
        // encode_batch uses) must not abort the batch mid-flight:
        // every sibling video still encodes, and only then does the
        // panic of the lowest-index failing video reach the caller.
        let videos: Vec<Video> = (0..6).map(|_| clip(3, ContentClass::ugc())).collect();
        let cfg = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30)).with_threads(4);
        let completed = AtomicUsize::new(0);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            encode_batch_with(&cfg, &videos, |cfg, v| {
                if std::ptr::eq(v, &videos[1]) {
                    panic!("kernel fault on video 1");
                }
                if std::ptr::eq(v, &videos[4]) {
                    panic!("kernel fault on video 4");
                }
                let r = encode(cfg, v);
                completed.fetch_add(1, Ordering::SeqCst);
                r
            })
        }))
        .expect_err("a worker panic must reach the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("panic payload should be the kernel's message");
        assert_eq!(
            msg, "kernel fault on video 1",
            "the lowest-index panic wins, not whichever worker lost the race"
        );
        assert_eq!(
            completed.load(Ordering::SeqCst),
            4,
            "all non-panicking siblings must run to completion first"
        );
    }

    #[test]
    fn one_pass_low_latency_produces_no_altref() {
        let v = clip(10, ContentClass::talking_head());
        let cfg = EncoderConfig::bitrate(Profile::Vp9Sim, 500_000, PassMode::OnePassLowLatency);
        let e = encode(&cfg, &v).unwrap();
        assert!(e.frames.iter().all(|f| f.kind != FrameKind::AltRef));
    }

    #[test]
    fn software_toolset_search_params_used() {
        // Software should do more search work per pixel than hardware.
        let v = clip(6, ContentClass::high_motion());
        let qp = Qp::new(30);
        let sw = encode(&EncoderConfig::const_qp(Profile::H264Sim, qp), &v).unwrap();
        let hw = encode(
            &EncoderConfig::const_qp(Profile::H264Sim, qp).with_hardware(TuningLevel::MATURE),
            &v,
        )
        .unwrap();
        assert!(sw.stats.sad_pixels > hw.stats.sad_pixels);
        assert!(matches!(
            EncoderConfig::const_qp(Profile::H264Sim, qp).toolset,
            Toolset::Software
        ));
    }
}

#[cfg(test)]
mod lagged_tests {
    use super::*;
    use crate::config::PassMode;
    use vcu_media::synth::{ContentClass, SynthSpec};
    use vcu_media::Resolution;

    #[test]
    fn lagged_two_pass_allows_bounded_altrefs() {
        let v = SynthSpec::new(Resolution::R144, 20, ContentClass::talking_head(), 6).generate();
        let cfg = EncoderConfig::bitrate(Profile::Vp9Sim, 700_000, PassMode::TwoPassLagged(12));
        let e = encode(&cfg, &v).unwrap();
        // A 12-frame lag window covers the altref lookahead (period/2),
        // so altrefs appear; decode still yields exactly 20 frames.
        assert!(
            e.frames.iter().any(|f| f.kind == FrameKind::AltRef),
            "lagged mode should produce altrefs"
        );
        let d = decode(&e.bytes).unwrap();
        assert_eq!(d.video.frames.len(), 20);
    }

    #[test]
    fn zero_lookahead_suppresses_altrefs() {
        let v = SynthSpec::new(Resolution::R144, 20, ContentClass::talking_head(), 6).generate();
        let cfg = EncoderConfig::bitrate(Profile::Vp9Sim, 700_000, PassMode::TwoPassLowLatency);
        let e = encode(&cfg, &v).unwrap();
        assert!(
            e.frames.iter().all(|f| f.kind != FrameKind::AltRef),
            "zero lookahead cannot reach any altref center"
        );
    }

    #[test]
    fn decoder_rejects_zero_dimension_header() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"VCSM");
        bytes.push(1);
        bytes.push(0);
        bytes.extend_from_slice(&0u16.to_le_bytes()); // w = 0
        bytes.extend_from_slice(&64u16.to_le_bytes());
        bytes.extend_from_slice(&30.0f32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn decoder_rejects_a_header_above_max_dim_before_allocating() {
        let v = SynthSpec::new(Resolution::R144, 2, ContentClass::talking_head(), 6).generate();
        let mut bytes = encode(&EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30)), &v)
            .unwrap()
            .bytes;
        // Width and height sit at bytes 6..10 of the header.
        bytes[6..10].copy_from_slice(&[0xFE, 0xFF, 0xFE, 0xFF]); // 65534 × 65534
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::Unsupported("dimensions exceed MAX_DIM"))
        ));
    }

    #[test]
    fn encode_rejects_an_fps_the_container_cannot_carry() {
        let frames = SynthSpec::new(Resolution::R144, 2, ContentClass::talking_head(), 6)
            .generate()
            .frames;
        let cfg = EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30));
        // 1e300 overflows f32 to infinity; 1e-300 underflows it to 0.
        for fps in [1e300, 1e-300] {
            let v = Video::new(frames.clone(), fps);
            assert!(
                matches!(encode(&cfg, &v), Err(CodecError::InvalidConfig(_))),
                "fps {fps}"
            );
        }
        // The largest finite f32 fits, and survives the round trip.
        let v = Video::new(frames, f32::MAX as f64);
        let e = encode(&cfg, &v).unwrap();
        assert_eq!(decode(&e.bytes).unwrap().video.fps, f32::MAX as f64);
    }

    #[test]
    fn decoder_rejects_nonsense_fps() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"VCSM");
        bytes.push(1);
        bytes.push(0);
        bytes.extend_from_slice(&64u16.to_le_bytes());
        bytes.extend_from_slice(&64u16.to_le_bytes());
        bytes.extend_from_slice(&f32::NAN.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode(&bytes).is_err());
    }
}
