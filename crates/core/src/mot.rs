//! Pixel-level multiple-output transcoding (MOT).
//!
//! Figure 2b's pipeline on real pixels: decode the input once,
//! downscale the raw frames to every ladder rung, and encode each rung
//! — against Figure 2a's SOT alternative, which decodes the input once
//! *per output*. The work metering makes the paper's "reduces the
//! decoding overheads" argument measurable on the real codec.

use vcu_codec::{decode, encode, CodecError, CodingStats, Encoded, EncoderConfig};
use vcu_media::scale::scale_frame;
use vcu_media::{Resolution, Video};

/// Output bundle of a MOT run.
#[derive(Debug)]
pub struct MotOutputs {
    /// One encoded stream per ladder rung (largest first).
    pub outputs: Vec<(Resolution, Encoded)>,
    /// Total work performed, including the single decode and all
    /// scales/encodes.
    pub stats: CodingStats,
    /// Number of input decodes performed (always 1 for MOT).
    pub decodes: u32,
}

/// Transcodes an encoded input into the full ladder at and below
/// `max_out`, decoding the input exactly once (MOT, Figure 2b).
///
/// # Errors
///
/// Propagates decode failures on the input and encode failures.
pub fn transcode_mot(
    input: &[u8],
    max_out: Resolution,
    cfg: &EncoderConfig,
) -> Result<MotOutputs, CodecError> {
    let decoded = decode(input)?;
    let mut stats = decoded.stats;
    let mut outputs = Vec::new();
    for rung in max_out.ladder() {
        let (w, h) = rung.dims();
        let scaled = if (w, h) == (decoded.video.width(), decoded.video.height()) {
            decoded.video.clone()
        } else {
            Video::new(
                decoded
                    .video
                    .frames
                    .iter()
                    .map(|f| scale_frame(f, w, h))
                    .collect(),
                decoded.video.fps,
            )
        };
        let e = encode(cfg, &scaled)?;
        stats += e.stats;
        outputs.push((rung, e));
    }
    Ok(MotOutputs {
        outputs,
        stats,
        decodes: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcu_codec::{Profile, Qp};
    use vcu_media::synth::{ContentClass, SynthSpec};

    /// The SOT alternative: one task per output, each decoding the input
    /// again (Figure 2a). Returns the same outputs plus the duplicated
    /// decode work — the comparator `transcode_mot` is measured against.
    fn transcode_sot_fan(
        input: &[u8],
        max_out: Resolution,
        cfg: &EncoderConfig,
    ) -> Result<MotOutputs, CodecError> {
        let mut stats = CodingStats::new();
        let mut outputs = Vec::new();
        let mut decodes = 0;
        for rung in max_out.ladder() {
            let decoded = decode(input)?; // re-decoded per output
            decodes += 1;
            stats += decoded.stats;
            let (w, h) = rung.dims();
            let scaled = if (w, h) == (decoded.video.width(), decoded.video.height()) {
                decoded.video
            } else {
                Video::new(
                    decoded
                        .video
                        .frames
                        .iter()
                        .map(|f| scale_frame(f, w, h))
                        .collect(),
                    decoded.video.fps,
                )
            };
            let e = encode(cfg, &scaled)?;
            stats += e.stats;
            outputs.push((rung, e));
        }
        Ok(MotOutputs {
            outputs,
            stats,
            decodes,
        })
    }

    fn encoded_input() -> Vec<u8> {
        let v = SynthSpec::new(Resolution::R240, 4, ContentClass::talking_head(), 8).generate();
        let cfg = EncoderConfig::const_qp(Profile::H264Sim, Qp::new(24));
        encode(&cfg, &v).expect("input encode").bytes
    }

    #[test]
    fn mot_produces_full_ladder() {
        let input = encoded_input();
        let cfg = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(32));
        let out = transcode_mot(&input, Resolution::R240, &cfg).expect("mot");
        let rungs: Vec<_> = out.outputs.iter().map(|(r, _)| *r).collect();
        assert_eq!(rungs, vec![Resolution::R240, Resolution::R144]);
        assert_eq!(out.decodes, 1);
        // Every output decodes.
        for (r, e) in &out.outputs {
            let d = decode(&e.bytes).expect("output decodes");
            assert_eq!(d.video.width(), r.width());
        }
    }

    #[test]
    fn mot_does_less_work_than_sot_fan() {
        let input = encoded_input();
        let cfg = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(32));
        let mot = transcode_mot(&input, Resolution::R240, &cfg).expect("mot");
        let sot = transcode_sot_fan(&input, Resolution::R240, &cfg).expect("sot");
        assert_eq!(sot.decodes, 2);
        assert!(
            mot.stats.work_units() < sot.stats.work_units(),
            "MOT {} should beat SOT fan {}",
            mot.stats.work_units(),
            sot.stats.work_units()
        );
        // Identical outputs either way (same codec, same inputs).
        assert_eq!(mot.outputs.len(), sot.outputs.len());
        for ((_, a), (_, b)) in mot.outputs.iter().zip(&sot.outputs) {
            assert_eq!(
                a.bytes, b.bytes,
                "MOT and SOT must produce identical streams"
            );
        }
    }
}
