//! Video chunking: closed GOPs for parallel transcoding.
//!
//! §2.1: "Transcoders can also shard the video into chunks (also known
//! as closed Groups of Pictures, or GOPs) that can each be processed in
//! parallel"; the platform "breaks the video into chunks, sending
//! them to parallel transcoder worker services, and assembling the
//! results into playable videos" (§2.2). Chunk boundaries land on
//! keyframes, so each chunk decodes independently.

use vcu_codec::{CodecError, FrameKind};
use vcu_media::Video;

/// A chunk boundary plan for a video of a given length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Start frame (inclusive) of each chunk.
    pub starts: Vec<usize>,
    /// Total frames.
    pub total_frames: usize,
}

impl ChunkPlan {
    /// Plans chunks of at most `chunk_frames` frames.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_frames` is zero or `total_frames` is zero.
    pub fn uniform(total_frames: usize, chunk_frames: usize) -> Self {
        assert!(chunk_frames > 0, "chunk length must be positive");
        assert!(total_frames > 0, "video must have frames");
        ChunkPlan {
            starts: (0..total_frames).step_by(chunk_frames).collect(),
            total_frames,
        }
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True if the plan has no chunks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Frame range `[start, end)` of chunk `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn range(&self, i: usize) -> (usize, usize) {
        let start = self.starts[i];
        let end = self.starts.get(i + 1).copied().unwrap_or(self.total_frames);
        (start, end)
    }
}

/// Splits a raw video into independently encodable chunk videos.
pub fn split(video: &Video, plan: &ChunkPlan) -> Vec<Video> {
    assert_eq!(plan.total_frames, video.frames.len(), "plan/video mismatch");
    (0..plan.len())
        .map(|i| {
            let (s, e) = plan.range(i);
            Video::new(video.frames[s..e].to_vec(), video.fps)
        })
        .collect()
}

/// Reassembles decoded chunks into one video and runs the §4.4
/// integrity check ("video length must match the input").
///
/// # Errors
///
/// Returns [`CodecError::CorruptBitstream`] when the assembled length
/// differs from `expected_frames` — the blast-radius containment check.
pub fn assemble(decoded_chunks: Vec<Video>, expected_frames: usize) -> Result<Video, CodecError> {
    let fps = decoded_chunks
        .first()
        .map(|v| v.fps)
        .ok_or(CodecError::CorruptBitstream("no chunks to assemble"))?;
    let frames: Vec<_> = decoded_chunks.into_iter().flat_map(|v| v.frames).collect();
    if frames.len() != expected_frames {
        return Err(CodecError::CorruptBitstream(
            "assembled length does not match input",
        ));
    }
    Ok(Video::new(frames, fps))
}

/// End-to-end check that a chunked encode round-trips: every chunk's
/// first coded frame must be a keyframe (decode independence).
pub fn chunks_are_independent(encoded: &[vcu_codec::Encoded]) -> bool {
    encoded.iter().all(|e| {
        e.frames
            .first()
            .map(|f| f.kind == FrameKind::Key)
            .unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcu_codec::{decode, encode_batch, EncoderConfig, Profile, Qp};
    use vcu_media::synth::{ContentClass, SynthSpec};
    use vcu_media::Resolution;

    fn clip(frames: usize) -> Video {
        SynthSpec::new(Resolution::R144, frames, ContentClass::talking_head(), 4).generate()
    }

    #[test]
    fn plan_covers_everything_once() {
        let p = ChunkPlan::uniform(100, 30);
        assert_eq!(p.len(), 4);
        assert_eq!(p.range(0), (0, 30));
        assert_eq!(p.range(3), (90, 100));
        let total: usize = (0..p.len()).map(|i| p.range(i).1 - p.range(i).0).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn split_and_assemble_is_identity() {
        let v = clip(10);
        let plan = ChunkPlan::uniform(10, 4);
        let chunks = split(&v, &plan);
        assert_eq!(chunks.len(), 3);
        let back = assemble(chunks, 10).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn assemble_detects_length_mismatch() {
        let v = clip(10);
        let plan = ChunkPlan::uniform(10, 5);
        let mut chunks = split(&v, &plan);
        chunks.pop(); // lose a chunk (a failed VCU ate it)
        assert!(assemble(chunks, 10).is_err());
    }

    #[test]
    fn chunked_encode_round_trips() {
        let v = clip(9);
        let plan = ChunkPlan::uniform(9, 3);
        let chunks = split(&v, &plan);
        let cfg = EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30));
        let encoded = encode_batch(&cfg, &chunks).unwrap();
        assert!(chunks_are_independent(&encoded));
        let decoded: Vec<Video> = encoded
            .iter()
            .map(|e| decode(&e.bytes).unwrap().video)
            .collect();
        let out = assemble(decoded, 9).unwrap();
        assert_eq!(out.frames.len(), 9);
    }

    #[test]
    fn chunks_decode_in_any_order() {
        // Closed GOPs: decoding chunk 2 must not need chunk 1.
        let v = clip(8);
        let plan = ChunkPlan::uniform(8, 4);
        let chunks = split(&v, &plan);
        let cfg = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30));
        let encoded = encode_batch(&cfg, &chunks).unwrap();
        // Decode only the second chunk.
        let d = decode(&encoded[1].bytes).unwrap();
        assert_eq!(d.video.frames.len(), 4);
    }
}
