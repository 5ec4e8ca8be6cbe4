//! The standard 16:9 output resolution ladder.
//!
//! Video sharing platforms convert each upload into a fixed group of
//! 16:9 resolutions (paper §2.1, footnote 1). [`Resolution`] enumerates
//! that ladder and provides the pixel arithmetic (Mpix/frame,
//! ladder-below-input) that MOT pipeline construction and throughput
//! accounting use throughout the workspace.

use std::fmt;

/// A rung of the standard 16:9 output ladder, named by vertical size.
///
/// # Example
///
/// ```
/// use vcu_media::Resolution;
///
/// assert_eq!(Resolution::R1080.dims(), (1920, 1080));
/// let ladder = Resolution::R1080.ladder();
/// assert_eq!(ladder.first(), Some(&Resolution::R1080));
/// assert_eq!(ladder.last(), Some(&Resolution::R144));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resolution {
    /// 256 × 144.
    R144,
    /// 426 × 240.
    R240,
    /// 640 × 360.
    R360,
    /// 854 × 480.
    R480,
    /// 1280 × 720 (HD).
    R720,
    /// 1920 × 1080 (Full HD).
    R1080,
    /// 2560 × 1440 (QHD).
    R1440,
    /// 3840 × 2160 (4K).
    R2160,
    /// 7680 × 4320 (8K).
    R4320,
}

impl Resolution {
    /// All ladder rungs, smallest first.
    pub const ALL: [Resolution; 9] = [
        Resolution::R144,
        Resolution::R240,
        Resolution::R360,
        Resolution::R480,
        Resolution::R720,
        Resolution::R1080,
        Resolution::R1440,
        Resolution::R2160,
        Resolution::R4320,
    ];

    /// `(width, height)` in pixels. All dimensions are even, as YUV
    /// 4:2:0 requires.
    pub const fn dims(self) -> (usize, usize) {
        match self {
            Resolution::R144 => (256, 144),
            Resolution::R240 => (426, 240),
            Resolution::R360 => (640, 360),
            Resolution::R480 => (854, 480),
            Resolution::R720 => (1280, 720),
            Resolution::R1080 => (1920, 1080),
            Resolution::R1440 => (2560, 1440),
            Resolution::R2160 => (3840, 2160),
            Resolution::R4320 => (7680, 4320),
        }
    }

    /// Width in pixels.
    pub const fn width(self) -> usize {
        self.dims().0
    }

    /// Height in pixels.
    pub const fn height(self) -> usize {
        self.dims().1
    }

    /// Pixels per frame.
    pub const fn pixels(self) -> u64 {
        let (w, h) = self.dims();
        (w as u64) * (h as u64)
    }

    /// The MOT output ladder for an input of this resolution: this
    /// rung and every smaller one, largest first — e.g. for a 1080p
    /// input: 1080p, 720p, 480p, 360p, 240p, 144p (paper §3.1).
    pub fn ladder(self) -> Vec<Resolution> {
        self.rungs().collect()
    }

    /// The rungs of [`Resolution::ladder`], in its order, without the
    /// `Vec`.
    pub fn rungs(self) -> impl Iterator<Item = Resolution> {
        Resolution::ALL
            .into_iter()
            .rev()
            .filter(move |r| *r <= self)
    }

    /// Total pixels across the full MOT ladder for this input. The
    /// paper notes this approximates a geometric series: the sum of all
    /// rungs below roughly equals the top rung again (§3.1 footnote 2).
    pub fn ladder_pixels(self) -> u64 {
        self.rungs().map(Resolution::pixels).sum()
    }

    /// Parses "144p"-style names.
    ///
    /// # Errors
    ///
    /// Returns [`ParseResolutionError`] if the string is not a ladder rung.
    pub fn parse(s: &str) -> Result<Resolution, ParseResolutionError> {
        match s {
            "144p" => Ok(Resolution::R144),
            "240p" => Ok(Resolution::R240),
            "360p" => Ok(Resolution::R360),
            "480p" => Ok(Resolution::R480),
            "720p" => Ok(Resolution::R720),
            "1080p" => Ok(Resolution::R1080),
            "1440p" => Ok(Resolution::R1440),
            "2160p" => Ok(Resolution::R2160),
            "4320p" => Ok(Resolution::R4320),
            _ => Err(ParseResolutionError {
                input: s.to_string(),
            }),
        }
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}p", self.height())
    }
}

/// Error returned by [`Resolution::parse`] for unrecognized names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseResolutionError {
    input: String,
}

impl fmt::Display for ParseResolutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unrecognized resolution name: {:?}", self.input)
    }
}

impl std::error::Error for ParseResolutionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_are_even() {
        for r in Resolution::ALL {
            let (w, h) = r.dims();
            assert_eq!(w % 2, 0, "{r} width odd");
            assert_eq!(h % 2, 0, "{r} height odd");
        }
    }

    #[test]
    fn ordering_by_size() {
        assert!(Resolution::R144 < Resolution::R2160);
        assert!(Resolution::R1080 < Resolution::R1440);
    }

    #[test]
    fn ladder_for_1080p() {
        let l = Resolution::R1080.ladder();
        assert_eq!(
            l,
            vec![
                Resolution::R1080,
                Resolution::R720,
                Resolution::R480,
                Resolution::R360,
                Resolution::R240,
                Resolution::R144
            ]
        );
    }

    #[test]
    fn geometric_series_property() {
        // Paper §3.1 fn 2: 720p+480p+...+144p ≈ 1.7 Mpix vs 1080p ≈ 2 Mpix.
        let below: u64 = Resolution::R1080
            .ladder()
            .iter()
            .skip(1)
            .map(|r| r.pixels())
            .sum();
        let top = Resolution::R1080.pixels();
        let ratio = below as f64 / top as f64;
        assert!((0.6..1.1).contains(&ratio), "ratio {ratio}");
        assert_eq!(Resolution::R1080.ladder_pixels(), top + below);
    }

    #[test]
    fn parse_round_trips() {
        for r in Resolution::ALL {
            assert_eq!(Resolution::parse(&r.to_string()).unwrap(), r);
        }
        assert!(Resolution::parse("500p").is_err());
        let err = Resolution::parse("potato").unwrap_err();
        assert!(err.to_string().contains("potato"));
    }

    #[test]
    fn mpix_matches_paper_example() {
        // Paper: "1080p is approximately 2 megapixels per frame".
        assert!((Resolution::R1080.pixels() as f64 / 1e6 - 2.07).abs() < 0.01);
        // "each raw [2160p] frame is 11.9 MiB" => 8.3 Mpix * 1.5 bytes.
        let bytes = Resolution::R2160.pixels() as f64 * 1.5;
        assert!((bytes / (1024.0 * 1024.0) - 11.86).abs() < 0.1);
    }
}
