//! Transcode job descriptions (device-independent).
//!
//! A [`TranscodeJob`] is the unit the paper's work scheduler moves
//! around: decode one input, produce one output (SOT) or a ladder of
//! outputs (MOT), under a latency class (§2.1). Device models consume
//! jobs and report time/throughput; the cluster scheduler consumes
//! their resource demands.

use std::fmt;
use std::ops::Deref;
use vcu_codec::Profile;
use vcu_media::Resolution;

/// One output variant of a transcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutputVariant {
    /// Output resolution.
    pub resolution: Resolution,
    /// Output coding profile.
    pub profile: Profile,
}

/// The output variants of one job, held inline: a length and room for
/// one full ladder, so a job is plain data — it clones by copy and
/// frees nothing. Reads as the slice of its variants (`iter()`,
/// `len()`, `[0]`, `==` and `{:?}` all go through [`Deref`]). Only
/// [`TranscodeJob::sot`] and [`TranscodeJob::mot`] build one, and both
/// put at least one variant in it.
#[derive(Clone)]
pub struct Outputs {
    len: u8,
    /// The variants, then filler past `len` that nothing reads.
    slots: [OutputVariant; Resolution::ALL.len()],
}

impl Outputs {
    /// `first`, then one variant of the same profile per ladder rung
    /// in `rest`.
    fn new(first: OutputVariant, rest: impl Iterator<Item = Resolution>) -> Self {
        let mut outputs = Outputs {
            len: 1,
            slots: [first; Resolution::ALL.len()],
        };
        for resolution in rest {
            outputs.slots[outputs.len as usize] = OutputVariant {
                resolution,
                ..first
            };
            outputs.len += 1;
        }
        outputs
    }
}

impl Deref for Outputs {
    type Target = [OutputVariant];

    fn deref(&self) -> &[OutputVariant] {
        &self.slots[..self.len as usize]
    }
}

impl PartialEq for Outputs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Outputs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A transcode work item.
#[derive(Debug, Clone, PartialEq)]
pub struct TranscodeJob {
    /// Input resolution.
    pub input: Resolution,
    /// Input frame rate.
    pub fps: f64,
    /// Length of the chunk in seconds.
    pub duration_s: f64,
    /// Outputs to produce. One element = SOT; several = MOT.
    pub outputs: Outputs,
    /// Whether a second encoding pass runs (offline/lagged two-pass).
    pub two_pass: bool,
}

impl TranscodeJob {
    /// A single-output transcode (SOT).
    pub fn sot(
        input: Resolution,
        output: Resolution,
        profile: Profile,
        fps: f64,
        duration_s: f64,
    ) -> Self {
        TranscodeJob {
            input,
            fps,
            duration_s,
            outputs: Outputs::new(
                OutputVariant {
                    resolution: output,
                    profile,
                },
                std::iter::empty(),
            ),
            two_pass: true,
        }
    }

    /// A multiple-output transcode (MOT) over the standard ladder at
    /// and below the input resolution (paper §3.1).
    pub fn mot(input: Resolution, profile: Profile, fps: f64, duration_s: f64) -> Self {
        TranscodeJob {
            input,
            fps,
            duration_s,
            outputs: Outputs::new(
                OutputVariant {
                    resolution: input,
                    profile,
                },
                input.rungs().skip(1),
            ),
            two_pass: true,
        }
    }

    /// Sets one-pass low-latency mode (live/gaming).
    pub fn low_latency(mut self) -> Self {
        self.two_pass = false;
        self
    }

    /// True if this is a multiple-output transcode.
    pub fn is_mot(&self) -> bool {
        self.outputs.len() > 1
    }

    /// Output pixel rate in Mpix/s — the paper's throughput unit
    /// (footnote 7: sum over outputs of fps × width × height).
    pub fn output_mpix_s(&self) -> f64 {
        self.outputs
            .iter()
            .map(|o| o.resolution.pixels() as f64)
            .sum::<f64>()
            * self.fps
            / 1e6
    }

    /// Input (decode) pixel rate in Mpix/s. SOT decodes the input once
    /// per output variant produced by separate tasks; within one job
    /// the input is decoded exactly once.
    pub(crate) fn input_mpix_s(&self) -> f64 {
        self.input.pixels() as f64 * self.fps / 1e6
    }

    /// Total output pixels over the job's duration.
    pub fn output_pixels(&self) -> f64 {
        self.output_mpix_s() * 1e6 * self.duration_s
    }

    /// Frames in the chunk.
    pub fn frames(&self) -> usize {
        (self.fps * self.duration_s).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mot_ladder_outputs() {
        let j = TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0);
        assert!(j.is_mot());
        assert_eq!(j.outputs.len(), 6);
        assert_eq!(j.outputs[0].resolution, Resolution::R1080);
        assert_eq!(j.outputs[5].resolution, Resolution::R144);
    }

    #[test]
    fn inline_outputs_read_like_the_vec_they_replace() {
        for input in Resolution::ALL {
            for profile in [Profile::H264Sim, Profile::Vp9Sim] {
                let expected: Vec<OutputVariant> = input
                    .ladder()
                    .into_iter()
                    .map(|resolution| OutputVariant {
                        resolution,
                        profile,
                    })
                    .collect();
                let mot = TranscodeJob::mot(input, profile, 30.0, 5.0);
                assert_eq!(mot.outputs.len(), expected.len());
                for (got, want) in mot.outputs.iter().zip(&expected) {
                    assert_eq!(got, want);
                }
                assert_eq!(format!("{:?}", mot.outputs), format!("{expected:?}"));
                assert_eq!(format!("{:#?}", mot.outputs), format!("{expected:#?}"));
                for output in Resolution::ALL {
                    let sot = TranscodeJob::sot(input, output, profile, 30.0, 5.0);
                    let only = OutputVariant {
                        resolution: output,
                        profile,
                    };
                    assert_eq!(sot.outputs[..], [only]);
                    // Equality reads the variants, never the filler
                    // behind them.
                    assert_eq!(sot.outputs == mot.outputs, expected == [only]);
                }
            }
        }
        // The parent's job was 64 bytes, 24 of them a `Vec` header.
        assert!(std::mem::size_of::<TranscodeJob>() <= 64);
    }

    #[test]
    fn mot_output_rate_roughly_doubles_input() {
        // Paper §3.1 fn 2: ladder sum ≈ 2× top rung.
        let j = TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0);
        let ratio = j.output_mpix_s() / j.input_mpix_s();
        assert!((1.6..2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sot_counts_one_output() {
        let j = TranscodeJob::sot(
            Resolution::R1080,
            Resolution::R480,
            Profile::H264Sim,
            30.0,
            5.0,
        );
        assert!(!j.is_mot());
        let expect = 854.0 * 480.0 * 30.0 / 1e6;
        assert!((j.output_mpix_s() - expect).abs() < 1e-9);
    }

    #[test]
    fn latency_modes() {
        let j = TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 2.0).low_latency();
        assert!(!j.two_pass);
        let s = TranscodeJob::sot(
            Resolution::R2160,
            Resolution::R2160,
            Profile::Vp9Sim,
            60.0,
            1.0,
        );
        assert!(s.two_pass);
    }

    #[test]
    fn frame_count() {
        let j = TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0);
        assert_eq!(j.frames(), 150);
    }
}
