//! Golden bitstream pins: byte-level encoder regression tests.
//!
//! Every row asserts the container length, an FNV-1a 64 hash of the
//! full container, and the headline work-metering counters for one
//! (content class, configuration) pair. The values were captured from
//! the allocation-heavy reference implementation; the zero-alloc
//! kernels, the early-exit SAD, the fast transform path, and the
//! search-result cache are all required to reproduce them exactly.
//! Each row then decodes its container and asserts a hash of the
//! decoded pixels and the decoder's metering, captured while the
//! decoder still kept its own copy of the reconstruction path, so a
//! decoder-only change cannot pass unnoticed.
//! A deliberate behavior change must re-capture these constants and
//! say so in the commit message.

use vcu_codec::{decode, encode, CodingStats, EncoderConfig, Profile, Qp, TuningLevel};
use vcu_media::synth::{ContentClass, SynthSpec};
use vcu_media::{Resolution, Video};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

/// One pinned encode: (config name, container bytes, container hash,
/// sad_pixels, transform_pixels, mc_pixels, bits), then the decode of
/// that container: the FNV-1a 64 of the decoded Y, U and V planes of
/// every displayable frame, and the decoder's own work metering.
struct Golden {
    config: &'static str,
    bytes: usize,
    hash: u64,
    sad: u64,
    tx: u64,
    mc: u64,
    bits: u64,
    dec_hash: u64,
    dec_tx: u64,
    dec_mc: u64,
    dec_intra_px: u64,
    dec_deblock: u64,
    dec_intra_blocks: u64,
    dec_inter_blocks: u64,
}

fn clip(content: &str) -> Video {
    let (class, seed) = match content {
        "ugc" => (ContentClass::ugc(), 13),
        "talking_head" => (ContentClass::talking_head(), 5),
        "high_motion" => (ContentClass::high_motion(), 77),
        other => panic!("unknown content class {other}"),
    };
    SynthSpec::new(Resolution::R144, 8, class, seed).generate()
}

fn config(name: &str) -> EncoderConfig {
    let qp = Qp::new(30);
    match name {
        "h264_sw" => EncoderConfig::const_qp(Profile::H264Sim, qp),
        "vp9_sw" => EncoderConfig::const_qp(Profile::Vp9Sim, qp),
        "vp9_hw_launch" => {
            EncoderConfig::const_qp(Profile::Vp9Sim, qp).with_hardware(TuningLevel::LAUNCH)
        }
        "vp9_hw_mature" => {
            EncoderConfig::const_qp(Profile::Vp9Sim, qp).with_hardware(TuningLevel::MATURE)
        }
        other => panic!("unknown config {other}"),
    }
}

fn check(content: &str, rows: &[Golden]) {
    let v = clip(content);
    for g in rows {
        let e = encode(&config(g.config), &v).unwrap();
        let ctx = format!("{content}/{}", g.config);
        assert_eq!(e.bytes.len(), g.bytes, "{ctx}: container size drifted");
        assert_eq!(
            fnv1a64(&e.bytes),
            g.hash,
            "{ctx}: bitstream bytes drifted (size matches — content differs)"
        );
        let CodingStats {
            sad_pixels,
            transform_pixels,
            mc_pixels,
            bits,
            ..
        } = e.stats;
        assert_eq!(
            sad_pixels, g.sad,
            "{ctx}: sad_pixels (device billing) drifted"
        );
        assert_eq!(transform_pixels, g.tx, "{ctx}: transform_pixels drifted");
        assert_eq!(mc_pixels, g.mc, "{ctx}: mc_pixels drifted");
        assert_eq!(bits, g.bits, "{ctx}: coded bits drifted");

        let d = decode(&e.bytes).unwrap();
        let planes: Vec<u8> = d
            .video
            .frames
            .iter()
            .flat_map(|f| [f.y(), f.u(), f.v()])
            .flat_map(|p| p.data().iter().copied())
            .collect();
        let CodingStats {
            transform_pixels,
            mc_pixels,
            intra_pixels,
            deblock_pixels,
            intra_blocks,
            inter_blocks,
            ..
        } = d.stats;
        assert_eq!(
            fnv1a64(&planes),
            g.dec_hash,
            "{ctx}: decoded pixels drifted"
        );
        assert_eq!(
            transform_pixels, g.dec_tx,
            "{ctx}: decode transform_pixels drifted"
        );
        assert_eq!(mc_pixels, g.dec_mc, "{ctx}: decode mc_pixels drifted");
        assert_eq!(
            intra_pixels, g.dec_intra_px,
            "{ctx}: decode intra_pixels drifted"
        );
        assert_eq!(
            deblock_pixels, g.dec_deblock,
            "{ctx}: decode deblock_pixels drifted"
        );
        assert_eq!(
            intra_blocks, g.dec_intra_blocks,
            "{ctx}: decode intra_blocks drifted"
        );
        assert_eq!(
            inter_blocks, g.dec_inter_blocks,
            "{ctx}: decode inter_blocks drifted"
        );
    }
}

#[test]
fn golden_ugc() {
    check(
        "ugc",
        &[
            Golden {
                config: "h264_sw",
                bytes: 32528,
                hash: 0x2C282F5FF95CFC5B,
                sad: 22054656,
                tx: 884736,
                mc: 385920,
                bits: 259440,
                dec_hash: 0xE7B91DE441D9DC49,
                dec_tx: 442368,
                dec_mc: 385920,
                dec_intra_px: 37632,
                dec_deblock: 85288,
                dec_intra_blocks: 147,
                dec_inter_blocks: 1005,
            },
            Golden {
                config: "vp9_sw",
                bytes: 28572,
                hash: 0x73CC3ABCE0F5BB4B,
                sad: 106272768,
                tx: 995328,
                mc: 1066752,
                bits: 227712,
                dec_hash: 0xA3B03B9F43314545,
                dec_tx: 497664,
                dec_mc: 476928,
                dec_intra_px: 37888,
                dec_deblock: 47534,
                dec_intra_blocks: 145,
                dec_inter_blocks: 359,
            },
            Golden {
                config: "vp9_hw_launch",
                bytes: 39494,
                hash: 0x88A21C590CED0883,
                sad: 43966464,
                tx: 884736,
                mc: 940032,
                bits: 315168,
                dec_hash: 0x2824C2136CB4BD4A,
                dec_tx: 442368,
                dec_mc: 423936,
                dec_intra_px: 36864,
                dec_deblock: 31626,
                dec_intra_blocks: 132,
                dec_inter_blocks: 312,
            },
            Golden {
                config: "vp9_hw_mature",
                bytes: 28597,
                hash: 0x7141C4FFC38C4144,
                sad: 63219968,
                tx: 995328,
                mc: 1064320,
                bits: 227912,
                dec_hash: 0xC324E4435A1807F0,
                dec_tx: 497664,
                dec_mc: 474496,
                dec_intra_px: 38144,
                dec_deblock: 47438,
                dec_intra_blocks: 146,
                dec_inter_blocks: 370,
            },
        ],
    );
}

#[test]
fn golden_talking_head() {
    check(
        "talking_head",
        &[
            Golden {
                config: "h264_sw",
                bytes: 8734,
                hash: 0x3BDC2DC5CC330D54,
                sad: 20507648,
                tx: 884736,
                mc: 387072,
                bits: 69088,
                dec_hash: 0x7AB98500C4ECB434,
                dec_tx: 442368,
                dec_mc: 387072,
                dec_intra_px: 36864,
                dec_deblock: 135102,
                dec_intra_blocks: 144,
                dec_inter_blocks: 1008,
            },
            Golden {
                config: "vp9_sw",
                bytes: 10735,
                hash: 0x1E8353009B44168A,
                sad: 87413248,
                tx: 995328,
                mc: 1056896,
                bits: 85016,
                dec_hash: 0xB67DF6D9D1F16EDF,
                dec_tx: 497664,
                dec_mc: 467072,
                dec_intra_px: 37120,
                dec_deblock: 71866,
                dec_intra_blocks: 130,
                dec_inter_blocks: 236,
            },
            Golden {
                config: "vp9_hw_launch",
                bytes: 16215,
                hash: 0x62634A479C7713EA,
                sad: 29301248,
                tx: 884736,
                mc: 911616,
                bits: 128936,
                dec_hash: 0x6CF870C800E47393,
                dec_tx: 442368,
                dec_mc: 395520,
                dec_intra_px: 36864,
                dec_deblock: 62484,
                dec_intra_blocks: 114,
                dec_inter_blocks: 201,
            },
            Golden {
                config: "vp9_hw_mature",
                bytes: 10735,
                hash: 0x1E8353009B44168A,
                sad: 44061184,
                tx: 995328,
                mc: 1056896,
                bits: 85016,
                dec_hash: 0xB67DF6D9D1F16EDF,
                dec_tx: 497664,
                dec_mc: 467072,
                dec_intra_px: 37120,
                dec_deblock: 71866,
                dec_intra_blocks: 130,
                dec_inter_blocks: 236,
            },
        ],
    );
}

#[test]
fn golden_high_motion() {
    check(
        "high_motion",
        &[
            Golden {
                config: "h264_sw",
                bytes: 70917,
                hash: 0xFC3D768EA209DC8C,
                sad: 19790592,
                tx: 884736,
                mc: 304128,
                bits: 566552,
                dec_hash: 0x27B9C7A2AD451492,
                dec_tx: 442368,
                dec_mc: 304128,
                dec_intra_px: 92160,
                dec_deblock: 32244,
                dec_intra_blocks: 360,
                dec_inter_blocks: 792,
            },
            Golden {
                config: "vp9_sw",
                bytes: 65500,
                hash: 0x9D391751500D1ED9,
                sad: 94585600,
                tx: 884736,
                mc: 804480,
                bits: 523216,
                dec_hash: 0x0C23518FA6D15790,
                dec_tx: 442368,
                dec_mc: 362112,
                dec_intra_px: 85248,
                dec_deblock: 14856,
                dec_intra_blocks: 333,
                dec_inter_blocks: 423,
            },
            Golden {
                config: "vp9_hw_launch",
                bytes: 72200,
                hash: 0x51A38E40CD86B14C,
                sad: 59500288,
                tx: 884736,
                mc: 948864,
                bits: 576816,
                dec_hash: 0x2927229F6E94884B,
                dec_tx: 442368,
                dec_mc: 432768,
                dec_intra_px: 44288,
                dec_deblock: 12378,
                dec_intra_blocks: 173,
                dec_inter_blocks: 454,
            },
            Golden {
                config: "vp9_hw_mature",
                bytes: 65605,
                hash: 0x0C14EC20625ACEEF,
                sad: 62134528,
                tx: 884736,
                mc: 802688,
                bits: 524056,
                dec_hash: 0x6CDFA092548AC2F9,
                dec_tx: 442368,
                dec_mc: 360320,
                dec_intra_px: 86272,
                dec_deblock: 14840,
                dec_intra_blocks: 337,
                dec_inter_blocks: 416,
            },
        ],
    );
}
