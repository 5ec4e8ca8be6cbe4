//! Scalar <-> SIMD differential tests for the pixel-kernel layer.
//!
//! Every dispatched kernel in `vcu_codec::kernels` is swept over random
//! block geometries (including non-multiple-of-lane-width tails),
//! unaligned slice offsets, and saturating-edge pixel values (0, 255),
//! asserting *exact* equality — output bytes, f64 bit patterns, and
//! work-metering counters — between the scalar reference and AVX2. On a
//! machine without AVX2 the sweep degrades gracefully to whatever
//! `available_backends()` reports. Block geometry oversamples the
//! edges: blocks flush with a plane's last row or column, 1×N and N×1
//! planes, and block widths one byte either side of a 16- or 32-byte
//! vector.
//!
//! The file also holds the decoder's hostile-input test, so it runs
//! under both backends too (`auto` in the test stage, `off` in the
//! release `simd_off` stage).
//!
//! A failing case prints the exact seed; replay it with
//! `VCU_PROP_SEED=<seed> cargo test <name>`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use vcu_codec::kernels::{self, Backend};
use vcu_codec::{decode, encode, encode_batch, CodecError, EncoderConfig, Profile, Qp};
use vcu_media::scale::scale_frame;
use vcu_media::synth::{ContentClass, SynthSpec};
use vcu_media::{Plane, Resolution, Video};
use vcu_rng::{prop_cases, Rng};
use vcu_system::chunking::{split, ChunkPlan};

/// Random pixel with the saturating edges oversampled: roughly a
/// quarter of samples are exactly 0 or 255, where `packus`/`pavgb`
/// rounding mistakes would hide from a uniform sweep.
fn px(rng: &mut Rng) -> u8 {
    match rng.gen_range(0u32..8) {
        0 | 1 => 0,
        2 | 3 => 255,
        _ => rng.gen_range(0u32..256) as u8,
    }
}

/// Buffer of `len` edge-biased pixels preceded by a random 0..8 byte
/// offset, so SIMD loads sweep every alignment class.
fn px_buf(rng: &mut Rng, len: usize) -> (Vec<u8>, usize) {
    let off = rng.gen_range(0usize..8);
    let buf: Vec<u8> = (0..off + len).map(|_| px(rng)).collect();
    (buf, off)
}

/// Block width in `1..hi`, with one draw in four 15, 17, 31 or 33 —
/// where a 16- or 32-byte loop hands over to its tail.
fn block_w(rng: &mut Rng, hi: usize) -> usize {
    match rng.gen_range(0u32..8) {
        0 | 1 => [15, 17, 31, 33][rng.gen_range(0usize..4)],
        _ => rng.gen_range(1usize..hi),
    }
}

/// Plane side in `lo..hi`, or 1 (a 1×N or N×1 plane) one time in eight.
fn plane_dim(rng: &mut Rng, lo: usize, hi: usize) -> usize {
    match rng.gen_range(0u32..8) {
        0 => 1,
        _ => rng.gen_range(lo..hi),
    }
}

/// Block origin on one axis: one draw in four is flush with the far
/// edge (`extent - need`, the last origin the interior path takes),
/// otherwise uniform in `lo..hi`.
fn block_pos(rng: &mut Rng, extent: usize, need: usize, lo: i64, hi: i64) -> isize {
    match rng.gen_range(0u32..4) {
        0 => extent as isize - need as isize,
        _ => rng.gen_range(lo..hi) as isize,
    }
}

fn random_plane(rng: &mut Rng, w: usize, h: usize) -> Plane {
    let data: Vec<u8> = (0..w * h).map(|_| px(rng)).collect();
    Plane::from_fn(w, h, |x, y| data[y * w + x])
}

fn simd_backends() -> Vec<Backend> {
    kernels::available_backends()
        .into_iter()
        .filter(|&b| b != Backend::Scalar)
        .collect()
}

prop_cases! {
    /// Flat SAD over arbitrary lengths and alignments.
    #[cases(512)]
    fn sad_slice_matches_scalar(rng) {
        let len = rng.gen_range(1usize..300);
        let (a, ao) = px_buf(rng, len);
        let (b, bo) = px_buf(rng, len);
        let (a, b) = (&a[ao..ao + len], &b[bo..bo + len]);
        let want = kernels::sad_slice_with(Backend::Scalar, a, b);
        for bk in simd_backends() {
            assert_eq!(kernels::sad_slice_with(bk, a, b), want, "{bk:?}");
        }
    }

    /// Row-thresholded SAD: the (sad, examined) pair must match
    /// exactly, and `examined` must honor the row-granular contract.
    #[cases(512)]
    fn sad_rows_thresholded_matches_scalar(rng) {
        let bw = block_w(rng, 67);
        let bh = rng.gen_range(1usize..33);
        let (a, ao) = px_buf(rng, bw * bh);
        let (b, bo) = px_buf(rng, bw * bh);
        let (a, b) = (&a[ao..ao + bw * bh], &b[bo..bo + bw * bh]);
        let threshold = match rng.gen_range(0u32..4) {
            0 => 0,
            1 => u64::MAX,
            _ => rng.gen_range(0u64..(bw * bh) as u64 * 128),
        };
        let (sad, examined) =
            kernels::sad_rows_thresholded_with(Backend::Scalar, a, b, bw, threshold);
        assert_eq!(examined % bw as u64, 0, "examined must be whole rows");
        assert!(examined <= (bw * bh) as u64);
        for bk in simd_backends() {
            assert_eq!(
                kernels::sad_rows_thresholded_with(bk, a, b, bw, threshold),
                (sad, examined),
                "{bk:?} bw={bw} bh={bh} threshold={threshold}"
            );
        }
    }

    /// Plane-level thresholded SAD at arbitrary (mostly out-of-bounds)
    /// positions: every backend must match the plane's own
    /// edge-clamped scalar oracle, pixel meter included.
    #[cases(512)]
    fn plane_sad_block_matches_plane_oracle(rng) {
        let w = plane_dim(rng, 8, 80);
        let h = plane_dim(rng, 8, 60);
        let plane = random_plane(rng, w, h);
        let bw = block_w(rng, 49);
        let bh = rng.gen_range(1usize..49);
        let x = block_pos(rng, w, bw, -(2 * w as i64), 2 * w as i64);
        let y = block_pos(rng, h, bh, -(2 * h as i64), 2 * h as i64);
        let (cur, co) = px_buf(rng, bw * bh);
        let cur = &cur[co..co + bw * bh];
        let threshold = match rng.gen_range(0u32..3) {
            0 => u64::MAX,
            _ => rng.gen_range(0u64..(bw * bh) as u64 * 64),
        };
        let want = plane.sad_block_thresholded(x, y, bw, bh, cur, threshold);
        for bk in kernels::available_backends() {
            assert_eq!(
                kernels::plane_sad_block_thresholded_with(bk, &plane, x, y, bw, bh, cur, threshold),
                want,
                "{bk:?} at ({x},{y}) {bw}x{bh} in {w}x{h}"
            );
        }
    }

    /// Hadamard SATD over block shapes that exercise both the 8-aligned
    /// fast grid and the partial edge cells.
    #[cases(384)]
    fn satd_matches_scalar(rng) {
        let bw = block_w(rng, 41);
        let bh = rng.gen_range(1usize..41);
        let (a, ao) = px_buf(rng, bw * bh);
        let (b, bo) = px_buf(rng, bw * bh);
        let (a, b) = (&a[ao..ao + bw * bh], &b[bo..bo + bw * bh]);
        let want = kernels::satd_with(Backend::Scalar, a, b, bw, bh);
        for bk in simd_backends() {
            assert_eq!(kernels::satd_with(bk, a, b, bw, bh), want, "{bk:?} {bw}x{bh}");
        }
    }

    /// Half-pel motion-compensated fetch at every fraction, including
    /// blocks hanging off the clamped border.
    #[cases(384)]
    fn copy_block_hpel_matches_plane_oracle(rng) {
        let w = plane_dim(rng, 8, 80);
        let h = plane_dim(rng, 8, 60);
        let plane = random_plane(rng, w, h);
        let bw = block_w(rng, 49);
        let bh = rng.gen_range(1usize..49);
        let fx = rng.gen_range(0u32..2) as u8;
        let fy = rng.gen_range(0u32..2) as u8;
        // A fractional fetch reads one pixel past the block on that axis.
        let x = block_pos(rng, w, bw + fx as usize, -(w as i64 + 8), w as i64 + 8);
        let y = block_pos(rng, h, bh + fy as usize, -(h as i64 + 8), h as i64 + 8);
        let mut want = vec![0u8; bw * bh];
        plane.copy_block_hpel(x, y, fx, fy, bw, bh, &mut want);
        let mut got = vec![0u8; bw * bh];
        for bk in kernels::available_backends() {
            got.fill(0);
            kernels::plane_copy_block_hpel_with(bk, &plane, x, y, fx, fy, bw, bh, &mut got);
            assert_eq!(got, want, "{bk:?} at ({x},{y}) f=({fx},{fy}) {bw}x{bh} in {w}x{h}");
        }
    }

    /// Residual extraction (u8 - u8 -> i16).
    #[cases(384)]
    fn compute_residual_matches_scalar(rng) {
        let len = rng.gen_range(1usize..300);
        let (cur, co) = px_buf(rng, len);
        let (pred, po) = px_buf(rng, len);
        let (cur, pred) = (&cur[co..co + len], &pred[po..po + len]);
        let mut want = vec![0i16; len];
        kernels::compute_residual_with(Backend::Scalar, cur, pred, &mut want);
        let mut got = vec![0i16; len];
        for bk in simd_backends() {
            got.fill(0);
            kernels::compute_residual_with(bk, cur, pred, &mut got);
            assert_eq!(got, want, "{bk:?}");
        }
    }

    /// Reconstruction (pred + residual, clamped to u8) across the full
    /// i16 residual range, where the saturating-add path must agree
    /// with the widening scalar clamp.
    #[cases(384)]
    fn add_residual_clamp_matches_scalar(rng) {
        let len = rng.gen_range(1usize..300);
        let (pred, po) = px_buf(rng, len);
        let pred = &pred[po..po + len];
        let resid: Vec<i16> = (0..len)
            .map(|_| match rng.gen_range(0u32..8) {
                0 => i16::MIN,
                1 => i16::MAX,
                _ => rng.gen_range(-600i32..600) as i16,
            })
            .collect();
        let mut want = vec![0u8; len];
        kernels::add_residual_clamp_with(Backend::Scalar, pred, &resid, &mut want);
        let mut got = vec![0u8; len];
        for bk in simd_backends() {
            got.fill(0);
            kernels::add_residual_clamp_with(bk, pred, &resid, &mut got);
            assert_eq!(got, want, "{bk:?}");
        }
    }

    /// Compound-prediction rounding average.
    #[cases(384)]
    fn avg_u8_matches_scalar(rng) {
        let len = rng.gen_range(1usize..300);
        let (a, ao) = px_buf(rng, len);
        let (b, bo) = px_buf(rng, len);
        let (a, b) = (&a[ao..ao + len], &b[bo..bo + len]);
        let mut want = a.to_vec();
        kernels::avg_u8_inplace_with(Backend::Scalar, &mut want, b);
        for bk in simd_backends() {
            let mut got = a.to_vec();
            kernels::avg_u8_inplace_with(bk, &mut got, b);
            assert_eq!(got, want, "{bk:?}");
        }
    }

    /// Temporal-filter blend accumulation: f64 results must match to
    /// the last bit (`to_bits`), not approximately.
    #[cases(384)]
    fn blend_accumulate_bitwise_matches_scalar(rng) {
        let len = rng.gen_range(1usize..300);
        let (src, so) = px_buf(rng, len);
        let src = &src[so..so + len];
        let acc0: Vec<f64> = (0..len)
            .map(|_| rng.gen_range(0u32..512_000) as f64 / 1000.0)
            .collect();
        let weight = rng.gen_range(0u32..1001) as f64 / 1000.0;
        let mut want = acc0.clone();
        kernels::blend_accumulate_with(Backend::Scalar, &mut want, src, weight);
        for bk in simd_backends() {
            let mut got = acc0.clone();
            kernels::blend_accumulate_with(bk, &mut got, src, weight);
            let same = got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "{bk:?}: blend result differs in bits");
        }
    }

    /// The inverse transform's round/clamp/narrow store: exact halves
    /// (x.5 rounds away from zero), near-half neighbors, and values far
    /// outside the i16 range must all narrow identically.
    #[cases(384)]
    fn round_clamp_i16_matches_scalar(rng) {
        let len = rng.gen_range(1usize..200);
        let src: Vec<f64> = (0..len)
            .map(|_| match rng.gen_range(0u32..8) {
                // Exact .5 boundary, both signs.
                0 => rng.gen_range(-40_000i64..40_000) as f64 + 0.5,
                1 => rng.gen_range(-40_000i64..40_000) as f64 - 0.5,
                // Out of i16 range -> clamp must engage.
                2 => rng.gen_range(-1_000_000i64..1_000_000) as f64 * 1000.0,
                // Dense around the rounding boundary.
                _ => rng.gen_range(-40_000_000i64..40_000_000) as f64 / 1000.0,
            })
            .collect();
        let mut want = vec![0i16; len];
        kernels::round_clamp_i16_with(Backend::Scalar, &src, &mut want);
        let mut got = vec![0i16; len];
        for bk in simd_backends() {
            got.fill(0);
            kernels::round_clamp_i16_with(bk, &src, &mut got);
            assert_eq!(got, want, "{bk:?}");
        }
    }

    /// Dead-zone quantizer and its inverse: coefficient magnitudes
    /// sweep tiny, typical, and far-beyond-the-level-cap values; the
    /// dequantized f64s are compared bitwise.
    #[cases(384)]
    fn quantize_dequantize_match_scalar(rng) {
        let len = rng.gen_range(1usize..200);
        let step = 4.0 * 2f64.powf((rng.gen_range(0i64..52) as f64 - 24.0) / 6.0);
        let deadzone = rng.gen_range(0i64..=500) as f64 / 1000.0;
        let coeffs: Vec<f64> = (0..len)
            .map(|_| match rng.gen_range(0u32..8) {
                // Exactly on a reconstruction point (floor boundary).
                0 => rng.gen_range(-64i64..=64) as f64 * step,
                // Magnitude beyond the 1<<20 level cap.
                1 => rng.gen_range(-4_000_000i64..4_000_000) as f64 * step,
                // Signed zero and small values.
                2 => rng.gen_range(-2i64..=2) as f64 * 0.0625,
                _ => rng.gen_range(-16_320_000i64..16_320_000) as f64 / 1000.0,
            })
            .collect();
        let mut want = vec![0i32; len];
        kernels::quantize_levels_with(Backend::Scalar, &coeffs, step, deadzone, &mut want);
        let mut want_rec = vec![0.0f64; len];
        kernels::dequantize_coeffs_with(Backend::Scalar, &want, step, &mut want_rec);
        for bk in simd_backends() {
            let mut got = vec![0i32; len];
            kernels::quantize_levels_with(bk, &coeffs, step, deadzone, &mut got);
            assert_eq!(got, want, "{bk:?} quantize");
            let mut rec = vec![0.0f64; len];
            kernels::dequantize_coeffs_with(bk, &want, step, &mut rec);
            let rb: Vec<u64> = rec.iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u64> = want_rec.iter().map(|v| v.to_bits()).collect();
            assert_eq!(rb, wb, "{bk:?} dequantize");
        }
    }

    /// Separable-transform passes: every even size up to the largest
    /// transform, bitwise f64 equality. The matrix pair is (rows,
    /// transposed rows) exactly as `transform.rs` feeds them.
    #[cases(256)]
    fn tx_passes_bitwise_match_scalar(rng) {
        let n = 2 * rng.gen_range(1usize..17);
        let m_rows: Vec<f64> = (0..n * n)
            .map(|_| rng.gen_range(-1_000_000i64..1_000_000) as f64 / 1_000_000.0)
            .collect();
        let mut m_cols = vec![0.0f64; n * n];
        for q in 0..n {
            for s in 0..n {
                m_cols[s * n + q] = m_rows[q * n + s];
            }
        }
        let input: Vec<f64> = (0..n * n)
            .map(|_| rng.gen_range(-255_000i64..255_000) as f64 / 1000.0)
            .collect();
        let mut want = vec![0.0f64; n * n];
        let mut got = vec![0.0f64; n * n];
        for contig in [false, true] {
            let run = if contig {
                kernels::tx_pass_contig_with
            } else {
                kernels::tx_pass_strided_with
            };
            run(Backend::Scalar, &m_rows, &m_cols, &input, n, &mut want);
            for bk in simd_backends() {
                got.fill(0.0);
                run(bk, &m_rows, &m_cols, &input, n, &mut got);
                let same = got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(same, "{bk:?} n={n} contig={contig}: tx output differs in bits");
            }
        }
    }
}

/// Pins the row-granular early-exit metering contract documented on
/// [`Plane::sad_block_thresholded`]: when the threshold trips, every
/// backend stops at the *same row boundary*, so `sad_pixels_examined`
/// is a whole-row multiple and identical across scalar and SIMD — the
/// property that keeps the chip timing model byte-identical no matter
/// which instruction set ran the search.
#[test]
fn early_exit_metering_is_row_granular_and_backend_invariant() {
    // Maximal per-pixel difference: each 16-wide row contributes
    // 16 * 255 = 4080 to the SAD.
    let a = vec![0u8; 16 * 16];
    let b = vec![255u8; 16 * 16];
    for (threshold, want_rows) in [
        (1, 1),          // trips after the first row
        (4080, 1),       // boundary: first row alone reaches it
        (4081, 2),       // needs one pixel of row 2 -> charges all of it
        (16 * 4080, 16), // trips exactly at the last row
        (u64::MAX, 16),  // never trips: full block
    ] {
        for bk in kernels::available_backends() {
            let (sad, examined) = kernels::sad_rows_thresholded_with(bk, &a, &b, 16, threshold);
            assert_eq!(
                examined,
                16 * want_rows,
                "{bk:?} threshold={threshold}: examined must be row-granular"
            );
            assert_eq!(sad, 4080 * want_rows, "{bk:?} threshold={threshold}");
        }
    }
}

/// Whole-encoder differential: the bitstream, per-frame sizes, and the
/// complete stats block (device *and* host work meters) must be
/// byte-identical whichever backend runs the pixel kernels, serial or
/// chunk-parallel.
#[test]
fn encode_is_byte_identical_across_backends() {
    let v = SynthSpec::new(Resolution::R144, 4, ContentClass::ugc(), 21).generate();
    let chunks = split(&v, &ChunkPlan::uniform(4, 2));
    let cfg = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(32));
    let chunked = |threads: usize| -> Vec<Vec<u8>> {
        let batch = encode_batch(&cfg.with_threads(threads), &chunks).unwrap();
        batch.into_iter().map(|e| e.bytes).collect()
    };
    let mut reference = None;
    for bk in kernels::available_backends() {
        kernels::set_backend(bk);
        let serial = encode(&cfg, &v).unwrap();
        let chunked4 = chunked(4);
        assert!(chunked(1) == chunked4, "{bk:?}: thread count changed bytes");
        match &reference {
            None => reference = Some((serial, chunked4)),
            Some((want, want_chunked)) => {
                assert_eq!(serial.bytes, want.bytes, "{bk:?}: bitstream differs");
                assert_eq!(serial.frames, want.frames, "{bk:?}: frame records differ");
                assert_eq!(serial.stats, want.stats, "{bk:?}: stats differ");
                assert!(
                    chunked4 == *want_chunked,
                    "{bk:?}: chunked bitstream differs"
                );
            }
        }
    }
}

/// The cross-backend length contract: every `_with` wrapper rejects an
/// input or output one element short, on every backend, before any
/// kernel runs — in release builds too (the `simd_off` verify stage
/// runs this file with `--release`), where a `debug_assert!` would not.
/// The AVX2 kernels' own bounds, without the wrappers in front, are
/// pinned by `kernels_panic_on_a_short_operand` in `x86.rs`.
#[test]
fn short_slices_panic_in_every_backend() {
    // An 8×8 transform operand, and one a single element short.
    const M: &[f64] = &[0.0; 64];
    const SHORT: &[f64] = &[0.0; 63];
    type Case = (&'static str, fn(Backend));
    let cases: &[Case] = &[
        ("sad_slice b", |bk| {
            kernels::sad_slice_with(bk, &[0; 32], &[0; 31]);
        }),
        ("sad_rows_thresholded b", |bk| {
            kernels::sad_rows_thresholded_with(bk, &[0; 64], &[0; 63], 16, u64::MAX);
        }),
        ("plane_sad_block_thresholded other", |bk| {
            kernels::plane_sad_block_thresholded_with(
                bk,
                &Plane::new(16, 16),
                0,
                0,
                8,
                8,
                &[0; 63],
                u64::MAX,
            );
        }),
        ("satd cur", |bk| {
            kernels::satd_with(bk, &[0; 255], &[0; 256], 16, 16);
        }),
        ("satd pred", |bk| {
            kernels::satd_with(bk, &[0; 256], &[0; 255], 16, 16);
        }),
        ("plane_copy_block_hpel dst", |bk| {
            kernels::plane_copy_block_hpel_with(
                bk,
                &Plane::new(16, 16),
                2,
                2,
                1,
                1,
                8,
                8,
                &mut [0; 63],
            );
        }),
        ("compute_residual pred", |bk| {
            kernels::compute_residual_with(bk, &[0; 32], &[0; 31], &mut [0; 32]);
        }),
        ("compute_residual out", |bk| {
            kernels::compute_residual_with(bk, &[0; 32], &[0; 32], &mut [0; 16]);
        }),
        ("add_residual_clamp resid", |bk| {
            kernels::add_residual_clamp_with(bk, &[0; 32], &[0; 31], &mut [0; 32]);
        }),
        ("add_residual_clamp out", |bk| {
            kernels::add_residual_clamp_with(bk, &[0; 32], &[0; 32], &mut [0; 31]);
        }),
        ("avg_u8_inplace b", |bk| {
            kernels::avg_u8_inplace_with(bk, &mut [0; 32], &[0; 31]);
        }),
        ("blend_accumulate src", |bk| {
            kernels::blend_accumulate_with(bk, &mut [0.0; 32], &[0; 31], 0.5);
        }),
        ("tx_pass_strided m_cols", |bk| {
            kernels::tx_pass_strided_with(bk, M, SHORT, M, 8, &mut [0.0; 64]);
        }),
        ("tx_pass_strided input", |bk| {
            kernels::tx_pass_strided_with(bk, M, M, SHORT, 8, &mut [0.0; 64]);
        }),
        ("tx_pass_strided out", |bk| {
            kernels::tx_pass_strided_with(bk, M, M, M, 8, &mut [0.0; 63]);
        }),
        ("tx_pass_contig m_cols", |bk| {
            kernels::tx_pass_contig_with(bk, M, SHORT, M, 8, &mut [0.0; 64]);
        }),
        ("tx_pass_contig input", |bk| {
            kernels::tx_pass_contig_with(bk, M, M, SHORT, 8, &mut [0.0; 64]);
        }),
        ("tx_pass_contig out", |bk| {
            kernels::tx_pass_contig_with(bk, M, M, M, 8, &mut [0.0; 63]);
        }),
        ("round_clamp_i16 out", |bk| {
            kernels::round_clamp_i16_with(bk, &[0.0; 32], &mut [0; 31]);
        }),
        ("quantize_levels levels", |bk| {
            kernels::quantize_levels_with(bk, &[0.0; 32], 4.0, 0.5, &mut [0; 31]);
        }),
        ("dequantize_coeffs coeffs", |bk| {
            kernels::dequantize_coeffs_with(bk, &[0; 32], 4.0, &mut [0.0; 31]);
        }),
    ];
    for bk in kernels::available_backends() {
        for (name, case) in cases {
            let outcome = catch_unwind(AssertUnwindSafe(|| case(bk)));
            assert!(outcome.is_err(), "{bk:?} {name}: short slice accepted");
        }
    }
}

/// FNV-1a32, the container's per-frame payload checksum.
fn fnv1a32(bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .fold(0x811C_9DC5, |h, &b| (h ^ b as u32).wrapping_mul(16_777_619))
}

/// Container header length; frame records follow it. Each record is
/// kind (1 byte), qp (1), payload length (u32 LE), payload, FNV-1a32 of
/// the payload (u32 LE).
const HEADER_LEN: usize = 18;

/// `(record start, payload length)` of every frame record.
fn records(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = HEADER_LEN;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 2..at + 6].try_into().unwrap()) as usize;
        out.push((at, len));
        at += 10 + len;
    }
    assert_eq!(at, bytes.len(), "records must tile the container");
    out
}

/// Container bytes of the Key and Inter frame kinds.
const KEY: u8 = 0;
const INTER: u8 = 1;

/// A 6-frame 144p clip scaled to 96×56, per profile: encoded whole,
/// and as two 3-frame chunks encoded apart whose frame records follow
/// one header with the summed frame count, so the decoder meets a Key
/// record after an Inter one.
fn hostile_bases() -> &'static [[Vec<u8>; 2]; 2] {
    static BASES: OnceLock<[[Vec<u8>; 2]; 2]> = OnceLock::new();
    BASES.get_or_init(|| {
        let v = SynthSpec::new(Resolution::R144, 6, ContentClass::ugc(), 33).generate();
        let frames = v.frames.iter().map(|f| scale_frame(f, 96, 56)).collect();
        let v = Video::new(frames, v.fps);
        [Profile::H264Sim, Profile::Vp9Sim].map(|p| {
            let cfg = EncoderConfig::const_qp(p, Qp::new(36));
            let whole = encode(&cfg, &v).unwrap().bytes;
            let halves = encode_batch(&cfg, &split(&v, &ChunkPlan::uniform(6, 3))).unwrap();
            let mut joined = halves[0].bytes.clone();
            joined.extend_from_slice(&halves[1].bytes[HEADER_LEN..]);
            let count = (halves[0].frames.len() + halves[1].frames.len()) as u32;
            joined[14..18].copy_from_slice(&count.to_le_bytes());
            let kinds: Vec<u8> = records(&joined).iter().map(|&(at, _)| joined[at]).collect();
            let first_inter = kinds.iter().position(|&k| k == INTER);
            let last_key = kinds.iter().rposition(|&k| k == KEY);
            assert!(
                matches!((first_inter, last_key), (Some(i), Some(k)) if i < k),
                "{p:?}: the joined base needs a Key record after an Inter one: {kinds:?}"
            );
            [whole, joined]
        })
    })
}

prop_cases! {
    /// The decoder survives hostile containers: `decode` returns `Ok`
    /// or `Err` and never panics. Each case takes one of the four base
    /// streams (both profiles, whole and joined) and either flips 1–3
    /// bits of one frame payload and re-stamps that record's checksum,
    /// so the corruption reaches the frame decoder instead of stopping
    /// at the checksum; or overwrites a header field (width, height,
    /// fps, frame count); or truncates at a record boundary ±1 byte.
    #[cases(60)]
    fn decode_survives_hostile_payloads(rng) {
        let base = &hostile_bases()[rng.gen_range(0usize..2)][rng.gen_range(0usize..2)];
        let recs = records(base);
        let mut bytes = base.clone();
        let pick = |rng: &mut Rng, vals: &[u64]| vals[rng.gen_range(0..vals.len())];
        match rng.gen_range(0u32..3) {
            0 => {
                let (at, len) = recs[rng.gen_range(0..recs.len())];
                let payload = &mut bytes[at + 6..at + 6 + len];
                for _ in 0..rng.gen_range(1u32..=3) {
                    payload[rng.gen_range(0..len)] ^= 1 << rng.gen_range(0u32..8);
                }
                let sum = fnv1a32(payload).to_le_bytes();
                bytes[at + 6 + len..at + 10 + len].copy_from_slice(&sum);
                let got = decode(&bytes);
                let checksum = CodecError::CorruptBitstream("frame checksum mismatch");
                assert_ne!(got.err(), Some(checksum), "re-stamped payload hit the checksum");
                return;
            }
            1 => match rng.gen_range(0u32..4) {
                field @ (0 | 1) => {
                    let at = 6 + 2 * field as usize;
                    let orig = u16::from_le_bytes([bytes[at], bytes[at + 1]]) as u64;
                    let even = 2 * rng.gen_range(1u64..=256);
                    let dims = [0, 1, orig - 2, orig + 1, orig + 2, orig / 2, 2 * orig, even, 4098, 65535];
                    bytes[at..at + 2].copy_from_slice(&(pick(rng, &dims) as u16).to_le_bytes());
                }
                2 => {
                    let fps = [0.0, -30.0, f32::NAN, f32::INFINITY, 1e-30, 1e30, 7.5];
                    let f = fps[rng.gen_range(0..fps.len())];
                    bytes[10..14].copy_from_slice(&f.to_le_bytes());
                }
                _ => {
                    let n = recs.len() as u64;
                    let counts = [0, 1, n - 1, n + 1, 2 * n, u32::MAX as u64];
                    bytes[14..18].copy_from_slice(&(pick(rng, &counts) as u32).to_le_bytes());
                }
            },
            _ => {
                let bounds: Vec<usize> = recs.iter().map(|r| r.0).chain([bytes.len()]).collect();
                let cut = bounds[rng.gen_range(0..bounds.len())] + rng.gen_range(0usize..3);
                bytes.truncate((cut - 1).min(bytes.len()));
            }
        }
        let _ = decode(&bytes);
    }
}
