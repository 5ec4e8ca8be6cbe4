//! x86_64 AVX2 kernel implementations via `core::arch` intrinsics.
//!
//! Scalar (`scalar.rs`) is the reference and AVX2 the one SIMD backend.
//! The 128-bit helpers left here (`sad_const_sse2`,
//! `hadamard8_abs_sum_sse2`, `hpel_hv16`, …) are the AVX2 kernels' own
//! tails (AVX2 implies SSE2); nothing dispatches to them directly.
//!
//! # Safety
//!
//! Every `unsafe fn` here needs a CPU with AVX2 and slices covering
//! what it touches: equal lengths for the element-wise kernels, `bw * bh`
//! blocks for SAD/SATD, `n * n` operands for the transform passes. The
//! safe `_with` wrappers in `mod.rs` assert both before calling in.
//!
//! Every function here is *bit-identical* to its scalar reference in
//! `scalar.rs` — not approximately equal. The per-kernel arguments:
//!
//! - **SAD**: `psadbw`/`vpsadbw` compute exact integer abs-diff sums;
//!   accumulation is associative. The thresholded variants keep the
//!   early-exit check at row granularity (a full row's SAD is computed
//!   before any comparison), so `pixels_examined` matches scalar.
//! - **SATD**: the 8×8 Hadamard is exact i16 integer math (|coef| ≤
//!   255·64 = 16320 < 32767, no overflow). The SIMD form butterflies
//!   columns first, transposes, then butterflies again — the transpose
//!   of the scalar rows-then-columns result — and the abs-coefficient
//!   sum is transpose-invariant.
//! - **Half-pel MC**: `pavgb` computes exactly `(a + b + 1) >> 1`, the
//!   2-tap kernel. The 4-tap corner widens to u16 and computes
//!   `(s + 2) >> 2` exactly (max sum 1022 fits u16); nesting averages
//!   would round differently and is *not* used.
//! - **Reconstruction**: `adds_epi16` + `packus_epi16` ≡ widening add
//!   then `clamp(0, 255)`: pred ∈ [0,255] so the i16 saturation point
//!   (32767) and the pack saturation (255) compose to the same clamp.
//! - **Compound average**: `(a + b).div_ceil(2)` ≡ `(a + b + 1) >> 1`
//!   ≡ `pavgb`, exactly, over the whole u8 × u8 domain.
//! - **f64 transforms / blend**: lanes vectorize *across* independent
//!   outputs; each output's sum accumulates in the same ascending
//!   index order as scalar, with separate mul and add instructions
//!   (never FMA — contraction would change rounding).

#![allow(clippy::too_many_arguments)]

use super::scalar;
use core::arch::x86_64::*;

// ---------------------------------------------------------------- SAD

#[inline]
#[target_feature(enable = "sse2")]
unsafe fn hsum_epi64x2(v: __m128i) -> u64 {
    (_mm_cvtsi128_si64(v) as u64).wrapping_add(_mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64)
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sad_row_avx2(a: &[u8], b: &[u8]) -> u64 {
    let n = a.len();
    let mut i = 0;
    let mut acc = _mm256_setzero_si256();
    while i + 32 <= n {
        acc = _mm256_add_epi64(
            acc,
            _mm256_sad_epu8(
                _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i),
                _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i),
            ),
        );
        i += 32;
    }
    let mut sad = hsum_epi64x2(_mm_add_epi64(
        _mm256_castsi256_si128(acc),
        _mm256_extracti128_si256(acc, 1),
    ));
    if i + 16 <= n {
        sad += hsum_epi64x2(_mm_sad_epu8(
            _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i),
            _mm_loadu_si128(b.as_ptr().add(i) as *const __m128i),
        ));
        i += 16;
    }
    if i + 8 <= n {
        // 8-byte tail via the low half of psadbw — covers the common
        // 8-wide block rows that would otherwise be fully scalar.
        let s = _mm_sad_epu8(
            _mm_loadl_epi64(a.as_ptr().add(i) as *const __m128i),
            _mm_loadl_epi64(b.as_ptr().add(i) as *const __m128i),
        );
        sad += _mm_cvtsi128_si64(s) as u64;
        i += 8;
    }
    while i < n {
        sad += (a[i] as i32 - b[i] as i32).unsigned_abs() as u64;
        i += 1;
    }
    sad
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sad_slice_avx2(a: &[u8], b: &[u8]) -> u64 {
    sad_row_avx2(a, b)
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sad_rows_thresholded_avx2(
    a: &[u8],
    b: &[u8],
    bw: usize,
    threshold: u64,
) -> (u64, u64) {
    let mut sad = 0u64;
    let mut examined = 0u64;
    for (ra, rb) in a.chunks_exact(bw).zip(b.chunks_exact(bw)) {
        sad += sad_row_avx2(ra, rb);
        examined += bw as u64;
        if sad >= threshold {
            return (sad, examined);
        }
    }
    (sad, examined)
}

/// SAD of a slice against a constant edge pixel (the replicated border
/// of a clamped fetch), exact via psadbw against a broadcast.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn sad_const_sse2(v: u8, b: &[u8]) -> u64 {
    let n = b.len();
    let vv = _mm_set1_epi8(v as i8);
    let mut i = 0;
    let mut acc = _mm_setzero_si128();
    while i + 16 <= n {
        acc = _mm_add_epi64(
            acc,
            _mm_sad_epu8(vv, _mm_loadu_si128(b.as_ptr().add(i) as *const __m128i)),
        );
        i += 16;
    }
    let mut sad = hsum_epi64x2(acc);
    if i + 8 <= n {
        let s = _mm_sad_epu8(vv, _mm_loadl_epi64(b.as_ptr().add(i) as *const __m128i));
        sad += _mm_cvtsi128_si64(s) as u64;
        i += 8;
    }
    while i < n {
        sad += (v as i32 - b[i] as i32).unsigned_abs() as u64;
        i += 1;
    }
    sad
}

/// One row of an edge-clamped thresholded SAD. A clamped row reads
/// `data[cy][clamp(x + bx, 0, w-1)]`, which decomposes into a
/// replicated left border, a contiguous in-bounds middle, and a
/// replicated right border — each exactly vectorizable.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sad_row_clamped_avx2(row: &[u8], x: isize, other: &[u8]) -> u64 {
    let (w, bw) = (row.len(), other.len());
    let left = (-x).clamp(0, bw as isize) as usize;
    let right_start = (w as isize - x).clamp(left as isize, bw as isize) as usize;
    let mut sad = sad_const_sse2(row[0], &other[..left]);
    if right_start > left {
        let mid = &row[(x + left as isize) as usize..(x + right_start as isize) as usize];
        sad += sad_row_avx2(mid, &other[left..right_start]);
    }
    sad + sad_const_sse2(row[w - 1], &other[right_start..])
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sad_block_clamped_avx2(
    data: &[u8],
    width: usize,
    height: usize,
    x: isize,
    y: isize,
    bw: usize,
    bh: usize,
    other: &[u8],
    threshold: u64,
) -> (u64, u64) {
    let mut sad = 0u64;
    let mut examined = 0u64;
    for by in 0..bh {
        let cy = (y + by as isize).clamp(0, height as isize - 1) as usize;
        let row = &data[cy * width..(cy + 1) * width];
        sad += sad_row_clamped_avx2(row, x, &other[by * bw..(by + 1) * bw]);
        examined += bw as u64;
        if sad >= threshold {
            return (sad, examined);
        }
    }
    (sad, examined)
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sad_block_thresholded_avx2(
    data: &[u8],
    stride: usize,
    x: usize,
    y: usize,
    bw: usize,
    bh: usize,
    other: &[u8],
    threshold: u64,
) -> (u64, u64) {
    let mut sad = 0u64;
    let mut examined = 0u64;
    for by in 0..bh {
        let base = (y + by) * stride + x;
        sad += sad_row_avx2(&data[base..base + bw], &other[by * bw..(by + 1) * bw]);
        examined += bw as u64;
        if sad >= threshold {
            return (sad, examined);
        }
    }
    (sad, examined)
}

// --------------------------------------------------------------- SATD

/// Cross-register Hadamard butterfly (strides 1, 2, 4 over the
/// register index) — the same network as the scalar `pass8`.
macro_rules! butterfly8 {
    ($v:ident, $add:ident, $sub:ident) => {
        for stride in [1usize, 2, 4] {
            let mut i = 0;
            while i < 8 {
                for j in 0..stride {
                    let a = $v[i + j];
                    let b = $v[i + j + stride];
                    $v[i + j] = $add(a, b);
                    $v[i + j + stride] = $sub(a, b);
                }
                i += stride * 2;
            }
        }
    };
}

#[inline]
#[target_feature(enable = "sse2")]
unsafe fn transpose8x8_i16(v: &mut [__m128i; 8]) {
    let a0 = _mm_unpacklo_epi16(v[0], v[1]);
    let a1 = _mm_unpackhi_epi16(v[0], v[1]);
    let a2 = _mm_unpacklo_epi16(v[2], v[3]);
    let a3 = _mm_unpackhi_epi16(v[2], v[3]);
    let a4 = _mm_unpacklo_epi16(v[4], v[5]);
    let a5 = _mm_unpackhi_epi16(v[4], v[5]);
    let a6 = _mm_unpacklo_epi16(v[6], v[7]);
    let a7 = _mm_unpackhi_epi16(v[6], v[7]);
    let b0 = _mm_unpacklo_epi32(a0, a2);
    let b1 = _mm_unpackhi_epi32(a0, a2);
    let b2 = _mm_unpacklo_epi32(a1, a3);
    let b3 = _mm_unpackhi_epi32(a1, a3);
    let b4 = _mm_unpacklo_epi32(a4, a6);
    let b5 = _mm_unpackhi_epi32(a4, a6);
    let b6 = _mm_unpacklo_epi32(a5, a7);
    let b7 = _mm_unpackhi_epi32(a5, a7);
    v[0] = _mm_unpacklo_epi64(b0, b4);
    v[1] = _mm_unpackhi_epi64(b0, b4);
    v[2] = _mm_unpacklo_epi64(b1, b5);
    v[3] = _mm_unpackhi_epi64(b1, b5);
    v[4] = _mm_unpacklo_epi64(b2, b6);
    v[5] = _mm_unpackhi_epi64(b2, b6);
    v[6] = _mm_unpacklo_epi64(b3, b7);
    v[7] = _mm_unpackhi_epi64(b3, b7);
}

/// Two side-by-side 8×8 transposes: the 256-bit unpacks operate within
/// each 128-bit lane, which is exactly one block per lane.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose8x8_i16_pair(v: &mut [__m256i; 8]) {
    let a0 = _mm256_unpacklo_epi16(v[0], v[1]);
    let a1 = _mm256_unpackhi_epi16(v[0], v[1]);
    let a2 = _mm256_unpacklo_epi16(v[2], v[3]);
    let a3 = _mm256_unpackhi_epi16(v[2], v[3]);
    let a4 = _mm256_unpacklo_epi16(v[4], v[5]);
    let a5 = _mm256_unpackhi_epi16(v[4], v[5]);
    let a6 = _mm256_unpacklo_epi16(v[6], v[7]);
    let a7 = _mm256_unpackhi_epi16(v[6], v[7]);
    let b0 = _mm256_unpacklo_epi32(a0, a2);
    let b1 = _mm256_unpackhi_epi32(a0, a2);
    let b2 = _mm256_unpacklo_epi32(a1, a3);
    let b3 = _mm256_unpackhi_epi32(a1, a3);
    let b4 = _mm256_unpacklo_epi32(a4, a6);
    let b5 = _mm256_unpackhi_epi32(a4, a6);
    let b6 = _mm256_unpacklo_epi32(a5, a7);
    let b7 = _mm256_unpackhi_epi32(a5, a7);
    v[0] = _mm256_unpacklo_epi64(b0, b4);
    v[1] = _mm256_unpackhi_epi64(b0, b4);
    v[2] = _mm256_unpacklo_epi64(b1, b5);
    v[3] = _mm256_unpackhi_epi64(b1, b5);
    v[4] = _mm256_unpacklo_epi64(b2, b6);
    v[5] = _mm256_unpackhi_epi64(b2, b6);
    v[6] = _mm256_unpacklo_epi64(b3, b7);
    v[7] = _mm256_unpackhi_epi64(b3, b7);
}

#[inline]
#[target_feature(enable = "sse2")]
unsafe fn hsum_epi32x4(v: __m128i) -> u64 {
    let mut lanes = [0i32; 4];
    _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, v);
    lanes.iter().map(|&l| l as u64).sum()
}

/// 2-D Hadamard abs-coefficient sum of one 8×8 block of `cur - pred`.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn hadamard8_abs_sum_sse2(cur: *const u8, pred: *const u8, stride: usize) -> u64 {
    let zero = _mm_setzero_si128();
    let mut v = [zero; 8];
    for (r, slot) in v.iter_mut().enumerate() {
        let c = _mm_loadl_epi64(cur.add(r * stride) as *const __m128i);
        let p = _mm_loadl_epi64(pred.add(r * stride) as *const __m128i);
        *slot = _mm_sub_epi16(_mm_unpacklo_epi8(c, zero), _mm_unpacklo_epi8(p, zero));
    }
    butterfly8!(v, _mm_add_epi16, _mm_sub_epi16);
    transpose8x8_i16(&mut v);
    butterfly8!(v, _mm_add_epi16, _mm_sub_epi16);
    let ones = _mm_set1_epi16(1);
    let mut acc = _mm_setzero_si128();
    for &t in &v {
        // abs via max(v, 0 - v): no SSSE3 required, exact for |v| ≤ 16320.
        let abs = _mm_max_epi16(t, _mm_sub_epi16(zero, t));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(abs, ones));
    }
    hsum_epi32x4(acc)
}

/// Two horizontally adjacent 8×8 Hadamard blocks at once (one per
/// 128-bit lane). Returns each block's `abs_sum / 8` contribution
/// summed — the per-block flooring division matches the scalar walk.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hadamard8_pair_avx2(cur: *const u8, pred: *const u8, stride: usize) -> u64 {
    let mut v = [_mm256_setzero_si256(); 8];
    for (r, slot) in v.iter_mut().enumerate() {
        let c = _mm256_cvtepu8_epi16(_mm_loadu_si128(cur.add(r * stride) as *const __m128i));
        let p = _mm256_cvtepu8_epi16(_mm_loadu_si128(pred.add(r * stride) as *const __m128i));
        *slot = _mm256_sub_epi16(c, p);
    }
    butterfly8!(v, _mm256_add_epi16, _mm256_sub_epi16);
    transpose8x8_i16_pair(&mut v);
    butterfly8!(v, _mm256_add_epi16, _mm256_sub_epi16);
    let ones = _mm256_set1_epi16(1);
    let mut acc = _mm256_setzero_si256();
    for &t in &v {
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(_mm256_abs_epi16(t), ones));
    }
    let left = hsum_epi32x4(_mm256_castsi256_si128(acc));
    let right = hsum_epi32x4(_mm256_extracti128_si256(acc, 1));
    left / 8 + right / 8
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn satd_avx2(cur: &[u8], pred: &[u8], bw: usize, bh: usize) -> u64 {
    let mut total = 0u64;
    let mut y = 0;
    while y < bh {
        let mut x = 0;
        while x < bw {
            if y + 8 <= bh && x + 16 <= bw {
                let off = y * bw + x;
                total += hadamard8_pair_avx2(cur.as_ptr().add(off), pred.as_ptr().add(off), bw);
                x += 16;
                continue;
            }
            if x + 8 <= bw && y + 8 <= bh {
                let off = y * bw + x;
                total +=
                    hadamard8_abs_sum_sse2(cur.as_ptr().add(off), pred.as_ptr().add(off), bw) / 8;
            } else {
                scalar::satd_partial(cur, pred, bw, bh, x, y, &mut total);
            }
            x += 8;
        }
        y += 8;
    }
    total
}

// -------------------------------------------------------- half-pel MC

/// Half-pel fetch of an interior `bw × bh` block at fraction
/// `(fx, fy)` (not both zero): the 2-tap horizontal or vertical kernel,
/// or the 4-tap corner.
///
/// # Safety
///
/// The CPU must support AVX2. Rows of `data` and `dst` are taken with
/// checked slicing, so a short slice panics rather than overruns.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn hpel_avx2(
    data: &[u8],
    stride: usize,
    x: usize,
    y: usize,
    fx: u8,
    fy: u8,
    bw: usize,
    bh: usize,
    dst: &mut [u8],
) {
    match (fx, fy) {
        (1, 0) => hpel_h_avx2(data, stride, x, y, bw, bh, dst),
        (0, 1) => hpel_v_avx2(data, stride, x, y, bw, bh, dst),
        _ => hpel_hv_avx2(data, stride, x, y, bw, bh, dst),
    }
}

#[target_feature(enable = "avx2")]
unsafe fn hpel_h_avx2(
    data: &[u8],
    stride: usize,
    x: usize,
    y: usize,
    bw: usize,
    bh: usize,
    dst: &mut [u8],
) {
    for by in 0..bh {
        let base = (y + by) * stride + x;
        let row = &data[base..base + bw + 1];
        let out = &mut dst[by * bw..(by + 1) * bw];
        let mut i = 0;
        while i + 32 <= bw {
            let a = _mm256_loadu_si256(row.as_ptr().add(i) as *const __m256i);
            let b = _mm256_loadu_si256(row.as_ptr().add(i + 1) as *const __m256i);
            _mm256_storeu_si256(
                out.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_avg_epu8(a, b),
            );
            i += 32;
        }
        if i + 16 <= bw {
            let a = _mm_loadu_si128(row.as_ptr().add(i) as *const __m128i);
            let b = _mm_loadu_si128(row.as_ptr().add(i + 1) as *const __m128i);
            _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut __m128i, _mm_avg_epu8(a, b));
            i += 16;
        }
        while i < bw {
            out[i] = ((row[i] as u16 + row[i + 1] as u16 + 1) >> 1) as u8;
            i += 1;
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn hpel_v_avx2(
    data: &[u8],
    stride: usize,
    x: usize,
    y: usize,
    bw: usize,
    bh: usize,
    dst: &mut [u8],
) {
    for by in 0..bh {
        let base = (y + by) * stride + x;
        let r0 = &data[base..base + bw];
        let r1 = &data[base + stride..base + stride + bw];
        let out = &mut dst[by * bw..(by + 1) * bw];
        let mut i = 0;
        while i + 32 <= bw {
            let a = _mm256_loadu_si256(r0.as_ptr().add(i) as *const __m256i);
            let b = _mm256_loadu_si256(r1.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(
                out.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_avg_epu8(a, b),
            );
            i += 32;
        }
        if i + 16 <= bw {
            let a = _mm_loadu_si128(r0.as_ptr().add(i) as *const __m128i);
            let b = _mm_loadu_si128(r1.as_ptr().add(i) as *const __m128i);
            _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut __m128i, _mm_avg_epu8(a, b));
            i += 16;
        }
        while i < bw {
            out[i] = ((r0[i] as u16 + r1[i] as u16 + 1) >> 1) as u8;
            i += 1;
        }
    }
}

/// 4-tap corner: widen all four taps to u16 and compute `(s + 2) >> 2`
/// exactly. Max sum is 4·255 + 2 = 1022, comfortably inside u16; the
/// shifted result ≤ 255 packs losslessly.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn hpel_hv16(r0: *const u8, r1: *const u8, out: *mut u8) {
    let zero = _mm_setzero_si128();
    let two = _mm_set1_epi16(2);
    let a = _mm_loadu_si128(r0 as *const __m128i);
    let b = _mm_loadu_si128(r0.add(1) as *const __m128i);
    let c = _mm_loadu_si128(r1 as *const __m128i);
    let d = _mm_loadu_si128(r1.add(1) as *const __m128i);
    let lo = _mm_add_epi16(
        _mm_add_epi16(_mm_unpacklo_epi8(a, zero), _mm_unpacklo_epi8(b, zero)),
        _mm_add_epi16(_mm_unpacklo_epi8(c, zero), _mm_unpacklo_epi8(d, zero)),
    );
    let hi = _mm_add_epi16(
        _mm_add_epi16(_mm_unpackhi_epi8(a, zero), _mm_unpackhi_epi8(b, zero)),
        _mm_add_epi16(_mm_unpackhi_epi8(c, zero), _mm_unpackhi_epi8(d, zero)),
    );
    let lo = _mm_srli_epi16(_mm_add_epi16(lo, two), 2);
    let hi = _mm_srli_epi16(_mm_add_epi16(hi, two), 2);
    _mm_storeu_si128(out as *mut __m128i, _mm_packus_epi16(lo, hi));
}

#[target_feature(enable = "avx2")]
unsafe fn hpel_hv_avx2(
    data: &[u8],
    stride: usize,
    x: usize,
    y: usize,
    bw: usize,
    bh: usize,
    dst: &mut [u8],
) {
    let zero = _mm256_setzero_si256();
    let two = _mm256_set1_epi16(2);
    for by in 0..bh {
        let base = (y + by) * stride + x;
        let r0 = &data[base..base + bw + 1];
        let r1 = &data[base + stride..base + stride + bw + 1];
        let out = &mut dst[by * bw..(by + 1) * bw];
        let mut i = 0;
        while i + 32 <= bw {
            let a = _mm256_loadu_si256(r0.as_ptr().add(i) as *const __m256i);
            let b = _mm256_loadu_si256(r0.as_ptr().add(i + 1) as *const __m256i);
            let c = _mm256_loadu_si256(r1.as_ptr().add(i) as *const __m256i);
            let d = _mm256_loadu_si256(r1.as_ptr().add(i + 1) as *const __m256i);
            let lo = _mm256_add_epi16(
                _mm256_add_epi16(_mm256_unpacklo_epi8(a, zero), _mm256_unpacklo_epi8(b, zero)),
                _mm256_add_epi16(_mm256_unpacklo_epi8(c, zero), _mm256_unpacklo_epi8(d, zero)),
            );
            let hi = _mm256_add_epi16(
                _mm256_add_epi16(_mm256_unpackhi_epi8(a, zero), _mm256_unpackhi_epi8(b, zero)),
                _mm256_add_epi16(_mm256_unpackhi_epi8(c, zero), _mm256_unpackhi_epi8(d, zero)),
            );
            let lo = _mm256_srli_epi16(_mm256_add_epi16(lo, two), 2);
            let hi = _mm256_srli_epi16(_mm256_add_epi16(hi, two), 2);
            // packus interleaves per 128-bit lane in the same order the
            // unpacks split, so bytes land back in position.
            _mm256_storeu_si256(
                out.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_packus_epi16(lo, hi),
            );
            i += 32;
        }
        if i + 16 <= bw {
            hpel_hv16(
                r0.as_ptr().add(i),
                r1.as_ptr().add(i),
                out.as_mut_ptr().add(i),
            );
            i += 16;
        }
        while i < bw {
            let s = r0[i] as u16 + r0[i + 1] as u16 + r1[i] as u16 + r1[i + 1] as u16;
            out[i] = ((s + 2) >> 2) as u8;
            i += 1;
        }
    }
}

// ----------------------------------------------- residual / recon

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn compute_residual_avx2(cur: &[u8], pred: &[u8], out: &mut [i16]) {
    let n = cur.len();
    let mut i = 0;
    while i + 16 <= n {
        let c = _mm256_cvtepu8_epi16(_mm_loadu_si128(cur.as_ptr().add(i) as *const __m128i));
        let p = _mm256_cvtepu8_epi16(_mm_loadu_si128(pred.as_ptr().add(i) as *const __m128i));
        _mm256_storeu_si256(
            out.as_mut_ptr().add(i) as *mut __m256i,
            _mm256_sub_epi16(c, p),
        );
        i += 16;
    }
    while i < n {
        out[i] = cur[i] as i16 - pred[i] as i16;
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn add_residual_clamp_avx2(pred: &[u8], resid: &[i16], out: &mut [u8]) {
    let n = pred.len();
    let mut i = 0;
    while i + 16 <= n {
        let p = _mm256_cvtepu8_epi16(_mm_loadu_si128(pred.as_ptr().add(i) as *const __m128i));
        let r = _mm256_loadu_si256(resid.as_ptr().add(i) as *const __m256i);
        let s = _mm256_adds_epi16(p, r);
        let packed = _mm_packus_epi16(_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1));
        _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut __m128i, packed);
        i += 16;
    }
    while i < n {
        out[i] = (pred[i] as i32 + resid[i] as i32).clamp(0, 255) as u8;
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn avg_u8_inplace_avx2(a: &mut [u8], b: &[u8]) {
    let n = a.len();
    let mut i = 0;
    while i + 32 <= n {
        let x = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
        let y = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
        _mm256_storeu_si256(a.as_mut_ptr().add(i) as *mut __m256i, _mm256_avg_epu8(x, y));
        i += 32;
    }
    if i + 16 <= n {
        let x = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
        let y = _mm_loadu_si128(b.as_ptr().add(i) as *const __m128i);
        _mm_storeu_si128(a.as_mut_ptr().add(i) as *mut __m128i, _mm_avg_epu8(x, y));
        i += 16;
    }
    while i < n {
        a[i] = (a[i] as u16 + b[i] as u16).div_ceil(2) as u8;
        i += 1;
    }
}

// ------------------------------------------------- f64 blend / tx

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn blend_accumulate_avx2(acc: &mut [f64], src: &[u8], weight: f64) {
    let n = acc.len();
    let wv = _mm256_set1_pd(weight);
    let mut i = 0;
    while i + 4 <= n {
        let raw = u32::from_le_bytes([src[i], src[i + 1], src[i + 2], src[i + 3]]);
        let v = _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(raw as i32)));
        // Separate mul + add — FMA contraction would change rounding.
        _mm256_storeu_pd(
            acc.as_mut_ptr().add(i),
            _mm256_add_pd(_mm256_loadu_pd(acc.as_ptr().add(i)), _mm256_mul_pd(v, wv)),
        );
        i += 4;
    }
    while i < n {
        acc[i] += src[i] as f64 * weight;
        i += 1;
    }
}

/// Computes one row of a transform pass into `vals[..n]`: `vals[q] =
/// Σ_s m_cols[s*n + q] * row[s]`. Outputs are grouped sixteen at a
/// time (four ymm accumulators) so the CPU has four independent
/// `addpd` dependency chains in flight; each output's own accumulation
/// still runs in ascending `s` order — the exact scalar arithmetic.
/// One `set1` broadcast per `s` is amortized over all four vectors.
/// 8- and 4-wide tails cover the smaller transforms, so `n` must be a
/// multiple of 4.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tx_row_avx2(m_cols: &[f64], row: &[f64], n: usize, vals: &mut [f64]) {
    let mut q = 0;
    while q + 16 <= n {
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut a2 = _mm256_setzero_pd();
        let mut a3 = _mm256_setzero_pd();
        for (s, &r) in row.iter().enumerate() {
            let w = _mm256_set1_pd(r);
            let base = m_cols.as_ptr().add(s * n + q);
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(base), w));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(base.add(4)), w));
            a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(base.add(8)), w));
            a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(base.add(12)), w));
        }
        let p = vals.as_mut_ptr().add(q);
        _mm256_storeu_pd(p, a0);
        _mm256_storeu_pd(p.add(4), a1);
        _mm256_storeu_pd(p.add(8), a2);
        _mm256_storeu_pd(p.add(12), a3);
        q += 16;
    }
    while q + 8 <= n {
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        for (s, &r) in row.iter().enumerate() {
            let w = _mm256_set1_pd(r);
            let base = m_cols.as_ptr().add(s * n + q);
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(base), w));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(base.add(4)), w));
        }
        let p = vals.as_mut_ptr().add(q);
        _mm256_storeu_pd(p, a0);
        _mm256_storeu_pd(p.add(4), a1);
        q += 8;
    }
    while q < n {
        let mut acc = _mm256_setzero_pd();
        for (s, &r) in row.iter().enumerate() {
            let m = _mm256_loadu_pd(m_cols.as_ptr().add(s * n + q));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(m, _mm256_set1_pd(r)));
        }
        _mm256_storeu_pd(vals.as_mut_ptr().add(q), acc);
        q += 4;
    }
}

/// Strided transform pass: `out[q*n + j] = Σ_s m_cols[s*n + q] *
/// input[j*n + s]`. `m_cols` is the transposed matrix (`m_cols[s*n + q]
/// == m_rows[q*n + s]`), giving contiguous lane loads.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn tx_pass_strided_avx2(
    m_cols: &[f64],
    input: &[f64],
    n: usize,
    out: &mut [f64],
) {
    let mut vals = [0.0f64; 32];
    for j in 0..n {
        let row = &input[j * n..(j + 1) * n];
        tx_row_avx2(m_cols, row, n, &mut vals[..n]);
        for (q, &v) in vals[..n].iter().enumerate() {
            out[q * n + j] = v;
        }
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn tx_pass_contig_avx2(m_cols: &[f64], input: &[f64], n: usize, out: &mut [f64]) {
    for j in 0..n {
        let (row, dst) = {
            let row = &input[j * n..(j + 1) * n];
            let dst = &mut out[j * n..(j + 1) * n];
            (row, dst)
        };
        tx_row_avx2(m_cols, row, n, dst);
    }
}

// --------------------------------------------------- round/clamp store

/// Round-half-away-from-zero has no direct SIMD instruction, but
/// decomposes exactly: `t = trunc(v)` (`round_pd` toward zero), then
/// `f = v - t` (exact — `t` and `v` lie in the same binade, so the
/// subtraction is lossless by the Sterbenz lemma), then add ±1.0 where
/// `|f| >= 0.5`. That reproduces `f64::round` bit-for-bit on every
/// finite input; the clamped integral f64 then converts exactly
/// through `cvttpd` and a saturating i32→i16 pack (values are already
/// inside the i16 range, so the saturation never engages).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn round_clamp_i16_avx2(src: &[f64], out: &mut [i16]) {
    let n = src.len();
    let half = _mm256_set1_pd(0.5);
    let neg_half = _mm256_set1_pd(-0.5);
    let one = _mm256_set1_pd(1.0);
    let neg_one = _mm256_set1_pd(-1.0);
    let lo = _mm256_set1_pd(i16::MIN as f64);
    let hi = _mm256_set1_pd(i16::MAX as f64);
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_loadu_pd(src.as_ptr().add(i));
        let t = _mm256_round_pd::<_MM_FROUND_TRUNC>(v);
        let f = _mm256_sub_pd(v, t);
        let up = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(f, half), one);
        let dn = _mm256_and_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(f, neg_half), neg_one);
        let r = _mm256_add_pd(_mm256_add_pd(t, up), dn);
        let c = _mm256_max_pd(_mm256_min_pd(r, hi), lo);
        let q = _mm256_cvttpd_epi32(c);
        let p = _mm_packs_epi32(q, q);
        _mm_storel_epi64(out.as_mut_ptr().add(i) as *mut __m128i, p);
        i += 4;
    }
    while i < n {
        out[i] = src[i].round().clamp(i16::MIN as f64, i16::MAX as f64) as i16;
        i += 1;
    }
}

// --------------------------------------------------------- quantizer

/// Dead-zone quantization, 4 coefficients per iteration. Every step
/// reproduces the scalar expression bit-for-bit on finite inputs:
/// `abs` is a sign-bit mask, the division stays a division (no
/// reciprocal — `vdivpd` is correctly rounded), `floor` is
/// `round_pd` toward negative infinity, and the `1 << 20` magnitude
/// cap moves into the f64 domain (`min_pd` before conversion), which
/// agrees with the scalar `(mag as i32).min(1 << 20)` because the
/// floored magnitude is non-negative and the cap is exactly
/// representable. The signed product `±mag` is integral and at most
/// 2^20 in magnitude, so `cvttpd` converts it exactly.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn quantize_levels_avx2(
    coeffs: &[f64],
    step: f64,
    deadzone: f64,
    levels: &mut [i32],
) {
    let n = coeffs.len();
    let vstep = _mm256_set1_pd(step);
    let vdz = _mm256_set1_pd(deadzone);
    let vcap = _mm256_set1_pd((1i32 << 20) as f64);
    let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
    let sign_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MIN));
    let one = _mm256_set1_pd(1.0);
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_loadu_pd(coeffs.as_ptr().add(i));
        let a = _mm256_and_pd(v, abs_mask);
        let mag =
            _mm256_round_pd::<_MM_FROUND_TO_NEG_INF>(_mm256_add_pd(_mm256_div_pd(a, vstep), vdz));
        let capped = _mm256_min_pd(mag, vcap);
        let sign = _mm256_or_pd(_mm256_and_pd(v, sign_mask), one);
        let q = _mm256_cvttpd_epi32(_mm256_mul_pd(capped, sign));
        _mm_storeu_si128(levels.as_mut_ptr().add(i) as *mut __m128i, q);
        i += 4;
    }
    while i < n {
        let c = coeffs[i];
        let mag = (c.abs() / step + deadzone).floor();
        levels[i] = (mag as i32).min(1 << 20) * c.signum() as i32;
        i += 1;
    }
}

/// Level reconstruction: `i32 -> f64` widening is exact and the
/// per-lane multiply is the same IEEE operation the scalar loop
/// performs, so the output is bit-identical.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn dequantize_coeffs_avx2(levels: &[i32], step: f64, coeffs: &mut [f64]) {
    let n = levels.len();
    let vstep = _mm256_set1_pd(step);
    let mut i = 0;
    while i + 4 <= n {
        let l = _mm_loadu_si128(levels.as_ptr().add(i) as *const __m128i);
        let v = _mm256_mul_pd(_mm256_cvtepi32_pd(l), vstep);
        _mm256_storeu_pd(coeffs.as_mut_ptr().add(i), v);
        i += 4;
    }
    while i < n {
        coeffs[i] = levels[i] as f64 * step;
        i += 1;
    }
}
