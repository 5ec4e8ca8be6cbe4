//! x86_64 AVX2 kernel implementations via `core::arch` intrinsics.
//!
//! Scalar (`scalar.rs`) is the reference and AVX2 the one SIMD backend.
//! The 128-bit helpers left here (`sad_const_sse2`,
//! `hadamard8_abs_sum_sse2`, …) are the AVX2 kernels' own tails (AVX2
//! implies SSE2); nothing dispatches to them directly.
//!
//! # Safety
//!
//! Every kernel here is a safe `#[target_feature]` fn over slices. It
//! walks its operands with `as_chunks`, so each register is loaded from
//! or stored to a `[T; N]` of exactly the register's width, and every
//! row or block is a checked slice: an operand shorter than the kernel
//! needs panics instead of being overrun. Outside the test module, only
//! the six load/store helpers below (`ld256`, `st256`, `ld128`,
//! `st128`, `ldpd`, `stpd`) contain `unsafe`, one intrinsic each, sound
//! for any array of their width. What stays `unsafe` is *calling* a
//! kernel from code built without AVX2: the `_with` wrappers in
//! `mod.rs` assert the CPU feature before each call.
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

// -------------------------------------------------------- loads/stores

/// An integer element type a 128- or 256-bit register is loaded from
/// or stored to as `[T; N]`.
trait Lane {}
impl Lane for u8 {}
impl Lane for i16 {}
impl Lane for i32 {}

#[inline]
#[target_feature(enable = "avx2")]
fn ld256<T: Lane, const N: usize>(a: &[T; N]) -> __m256i {
    const { assert!(N * size_of::<T>() == 32) };
    // SAFETY: `a` is 32 readable bytes (asserted above); `loadu` needs no alignment.
    unsafe { _mm256_loadu_si256(a.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn st256<T: Lane, const N: usize>(a: &mut [T; N], v: __m256i) {
    const { assert!(N * size_of::<T>() == 32) };
    // SAFETY: `a` is 32 writable bytes (asserted above); `storeu` needs no alignment.
    unsafe { _mm256_storeu_si256(a.as_mut_ptr().cast(), v) }
}

#[inline]
#[target_feature(enable = "sse2")]
fn ld128<T: Lane, const N: usize>(a: &[T; N]) -> __m128i {
    const { assert!(N * size_of::<T>() == 16) };
    // SAFETY: `a` is 16 readable bytes (asserted above); `loadu` needs no alignment.
    unsafe { _mm_loadu_si128(a.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "sse2")]
fn st128<T: Lane, const N: usize>(a: &mut [T; N], v: __m128i) {
    const { assert!(N * size_of::<T>() == 16) };
    // SAFETY: `a` is 16 writable bytes (asserted above); `storeu` needs no alignment.
    unsafe { _mm_storeu_si128(a.as_mut_ptr().cast(), v) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn ldpd(a: &[f64; 4]) -> __m256d {
    // SAFETY: `a` is four readable f64s; `loadu` needs no alignment.
    unsafe { _mm256_loadu_pd(a.as_ptr()) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn stpd(a: &mut [f64; 4], v: __m256d) {
    // SAFETY: `a` is four writable f64s; `storeu` needs no alignment.
    unsafe { _mm256_storeu_pd(a.as_mut_ptr(), v) }
}

/// Eight bytes into the low half of a register, upper half zero.
#[inline]
#[target_feature(enable = "sse2")]
fn ld64(a: &[u8; 8]) -> __m128i {
    _mm_cvtsi64_si128(i64::from_le_bytes(*a))
}

// ---------------------------------------------------------------- SAD

#[inline]
#[target_feature(enable = "sse2")]
fn hsum_epi64x2(v: __m128i) -> u64 {
    (_mm_cvtsi128_si64(v) as u64).wrapping_add(_mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64)
}

#[inline]
#[target_feature(enable = "avx2")]
pub(crate) fn sad_slice_avx2(a: &[u8], b: &[u8]) -> u64 {
    let b = &b[..a.len()];
    let (a32, a) = a.as_chunks::<32>();
    let (b32, b) = b.as_chunks::<32>();
    let mut acc = _mm256_setzero_si256();
    for (x, y) in a32.iter().zip(b32) {
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(ld256(x), ld256(y)));
    }
    let mut sad = hsum_epi64x2(_mm_add_epi64(
        _mm256_castsi256_si128(acc),
        _mm256_extracti128_si256(acc, 1),
    ));
    let (a16, a) = a.as_chunks::<16>();
    let (b16, b) = b.as_chunks::<16>();
    for (x, y) in a16.iter().zip(b16) {
        sad += hsum_epi64x2(_mm_sad_epu8(ld128(x), ld128(y)));
    }
    // 8-byte tail via the low half of psadbw — covers the common
    // 8-wide block rows that would otherwise be fully scalar.
    let (a8, a) = a.as_chunks::<8>();
    let (b8, b) = b.as_chunks::<8>();
    for (x, y) in a8.iter().zip(b8) {
        sad += _mm_cvtsi128_si64(_mm_sad_epu8(ld64(x), ld64(y))) as u64;
    }
    sad + scalar::sad_slice(a, b)
}

#[target_feature(enable = "avx2")]
pub(crate) fn sad_rows_thresholded_avx2(
    a: &[u8],
    b: &[u8],
    bw: usize,
    threshold: u64,
) -> (u64, u64) {
    let b = &b[..a.len()];
    let mut sad = 0u64;
    let mut examined = 0u64;
    for (ra, rb) in a.chunks_exact(bw).zip(b.chunks_exact(bw)) {
        sad += sad_slice_avx2(ra, rb);
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
fn sad_const_sse2(v: u8, b: &[u8]) -> u64 {
    let vv = _mm_set1_epi8(v as i8);
    let (b16, b) = b.as_chunks::<16>();
    let mut acc = _mm_setzero_si128();
    for y in b16 {
        acc = _mm_add_epi64(acc, _mm_sad_epu8(vv, ld128(y)));
    }
    let mut sad = hsum_epi64x2(acc);
    let (b8, b) = b.as_chunks::<8>();
    for y in b8 {
        sad += _mm_cvtsi128_si64(_mm_sad_epu8(vv, ld64(y))) as u64;
    }
    sad + scalar::sad_slice(&[v; 8][..b.len()], b)
}

/// One row of an edge-clamped thresholded SAD. A clamped row reads
/// `data[cy][clamp(x + bx, 0, w-1)]`, which decomposes into a
/// replicated left border, a contiguous in-bounds middle, and a
/// replicated right border — each exactly vectorizable.
#[inline]
#[target_feature(enable = "avx2")]
fn sad_row_clamped_avx2(row: &[u8], x: isize, other: &[u8]) -> u64 {
    let (w, bw) = (row.len(), other.len());
    let left = (-x).clamp(0, bw as isize) as usize;
    let right_start = (w as isize - x).clamp(left as isize, bw as isize) as usize;
    let mut sad = sad_const_sse2(row[0], &other[..left]);
    if right_start > left {
        let mid = &row[(x + left as isize) as usize..(x + right_start as isize) as usize];
        sad += sad_slice_avx2(mid, &other[left..right_start]);
    }
    sad + sad_const_sse2(row[w - 1], &other[right_start..])
}

#[target_feature(enable = "avx2")]
pub(crate) fn sad_block_clamped_avx2(
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
    let other = &other[..bw * bh];
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
pub(crate) fn sad_block_thresholded_avx2(
    data: &[u8],
    stride: usize,
    x: usize,
    y: usize,
    bw: usize,
    bh: usize,
    other: &[u8],
    threshold: u64,
) -> (u64, u64) {
    let other = &other[..bw * bh];
    let mut sad = 0u64;
    let mut examined = 0u64;
    for by in 0..bh {
        let base = (y + by) * stride + x;
        sad += sad_slice_avx2(&data[base..base + bw], &other[by * bw..(by + 1) * bw]);
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
fn transpose8x8_i16(v: &mut [__m128i; 8]) {
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
fn transpose8x8_i16_pair(v: &mut [__m256i; 8]) {
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
fn hsum_epi32x4(v: __m128i) -> u64 {
    let mut lanes = [0i32; 4];
    st128(&mut lanes, v);
    lanes.iter().map(|&l| l as u64).sum()
}

/// The first `N` pixels of row `r` of a block with row pitch `stride`.
#[inline]
fn block_row<const N: usize>(block: &[u8], r: usize, stride: usize) -> &[u8; N] {
    block[r * stride..]
        .first_chunk()
        .expect("row inside the block")
}

/// 2-D Hadamard abs-coefficient sum of the 8×8 block of `cur - pred`
/// whose top-left pixel is each slice's first byte.
#[inline]
#[target_feature(enable = "sse2")]
fn hadamard8_abs_sum_sse2(cur: &[u8], pred: &[u8], stride: usize) -> u64 {
    let zero = _mm_setzero_si128();
    let mut v = [zero; 8];
    for (r, slot) in v.iter_mut().enumerate() {
        let c = ld64(block_row(cur, r, stride));
        let p = ld64(block_row(pred, r, stride));
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
fn hadamard8_pair_avx2(cur: &[u8], pred: &[u8], stride: usize) -> u64 {
    let mut v = [_mm256_setzero_si256(); 8];
    for (r, slot) in v.iter_mut().enumerate() {
        let c = _mm256_cvtepu8_epi16(ld128(block_row::<16>(cur, r, stride)));
        let p = _mm256_cvtepu8_epi16(ld128(block_row::<16>(pred, r, stride)));
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
pub(crate) fn satd_avx2(cur: &[u8], pred: &[u8], bw: usize, bh: usize) -> u64 {
    let (cur, pred) = (&cur[..bw * bh], &pred[..bw * bh]);
    let mut total = 0u64;
    let mut y = 0;
    while y < bh {
        let mut x = 0;
        while x < bw {
            let off = y * bw + x;
            if y + 8 <= bh && x + 16 <= bw {
                total += hadamard8_pair_avx2(&cur[off..], &pred[off..], bw);
                x += 16;
                continue;
            }
            if x + 8 <= bw && y + 8 <= bh {
                total += hadamard8_abs_sum_sse2(&cur[off..], &pred[off..], bw) / 8;
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
/// `(fx, fy)` (not both zero): the 2-tap kernel between horizontally
/// (`fx`) or vertically (`fy`) adjacent pixels, or the 4-tap corner.
/// Each source row is a checked slice of `data` and `dst` is cut to
/// `bw * bh`, so a short operand panics.
#[target_feature(enable = "avx2")]
pub(crate) fn hpel_avx2(
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
    let need = bw + fx as usize;
    let row = |by: usize| &data[(y + by) * stride + x..][..need];
    // `max(1)`: a zero-width block has no rows, not a zero-size chunk.
    let outs = dst[..bw * bh].chunks_exact_mut(bw.max(1)).enumerate();
    // A vertical tap slices each source row once: it is the lower row of
    // one output row and the upper row of the next.
    match (fx, fy) {
        (1, 0) => outs.for_each(|(by, out)| {
            let r = row(by);
            avg2_row(r, &r[1..], out);
        }),
        (0, 1) => {
            let mut r0 = row(0);
            outs.for_each(|(by, out)| {
                let r1 = row(by + 1);
                avg2_row(r0, r1, out);
                r0 = r1;
            })
        }
        _ => {
            let mut r0 = row(0);
            outs.for_each(|(by, out)| {
                let r1 = row(by + 1);
                avg4_row(r0, r1, out);
                r0 = r1;
            })
        }
    }
}

/// The 2-tap kernel over one row: `out[i] = (a[i] + b[i] + 1) >> 1`.
#[inline]
#[target_feature(enable = "avx2")]
fn avg2_row(a: &[u8], b: &[u8], out: &mut [u8]) {
    let (a, b) = (&a[..out.len()], &b[..out.len()]);
    let (o16, out) = out.as_chunks_mut::<16>();
    let (a16, a) = a.as_chunks::<16>();
    let (b16, b) = b.as_chunks::<16>();
    for ((o, a), b) in o16.iter_mut().zip(a16).zip(b16) {
        st128(o, _mm_avg_epu8(ld128(a), ld128(b)));
    }
    for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
        *o = ((a as u16 + b as u16 + 1) >> 1) as u8;
    }
}

/// The 4-tap corner over one row, from two source rows one pixel
/// longer than `out`: widen all four taps to u16 and compute
/// `(s + 2) >> 2` exactly, 16 pixels per register. Max sum is
/// 4·255 + 2 = 1022, comfortably inside u16; the shifted result ≤ 255
/// packs losslessly.
#[inline]
#[target_feature(enable = "avx2")]
fn avg4_row(r0: &[u8], r1: &[u8], out: &mut [u8]) {
    let n = out.len();
    let (a, b, c, d) = (&r0[..n], &r0[1..=n], &r1[..n], &r1[1..=n]);
    let two = _mm256_set1_epi16(2);
    let (o16, out) = out.as_chunks_mut::<16>();
    let (a16, a) = a.as_chunks::<16>();
    let (b16, b) = b.as_chunks::<16>();
    let (c16, c) = c.as_chunks::<16>();
    let (d16, d) = d.as_chunks::<16>();
    for ((((o, a), b), c), d) in o16.iter_mut().zip(a16).zip(b16).zip(c16).zip(d16) {
        let [a, b, c, d] = [a, b, c, d].map(|v| _mm256_cvtepu8_epi16(ld128(v)));
        let s = _mm256_add_epi16(_mm256_add_epi16(a, b), _mm256_add_epi16(c, d));
        let s = _mm256_srli_epi16(_mm256_add_epi16(s, two), 2);
        st128(
            o,
            _mm_packus_epi16(_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1)),
        );
    }
    for ((((o, &a), &b), &c), &d) in out.iter_mut().zip(a).zip(b).zip(c).zip(d) {
        *o = ((a as u16 + b as u16 + c as u16 + d as u16 + 2) >> 2) as u8;
    }
}

// ----------------------------------------------- residual / recon

#[target_feature(enable = "avx2")]
pub(crate) fn compute_residual_avx2(cur: &[u8], pred: &[u8], out: &mut [i16]) {
    let (pred, out) = (&pred[..cur.len()], &mut out[..cur.len()]);
    let (c16, cur) = cur.as_chunks::<16>();
    let (p16, pred) = pred.as_chunks::<16>();
    let (o16, out) = out.as_chunks_mut::<16>();
    for ((c, p), o) in c16.iter().zip(p16).zip(o16) {
        let c = _mm256_cvtepu8_epi16(ld128(c));
        let p = _mm256_cvtepu8_epi16(ld128(p));
        st256(o, _mm256_sub_epi16(c, p));
    }
    scalar::compute_residual(cur, pred, out);
}

#[target_feature(enable = "avx2")]
pub(crate) fn add_residual_clamp_avx2(pred: &[u8], resid: &[i16], out: &mut [u8]) {
    let (resid, out) = (&resid[..pred.len()], &mut out[..pred.len()]);
    let (p16, pred) = pred.as_chunks::<16>();
    let (r16, resid) = resid.as_chunks::<16>();
    let (o16, out) = out.as_chunks_mut::<16>();
    for ((p, r), o) in p16.iter().zip(r16).zip(o16) {
        let s = _mm256_adds_epi16(_mm256_cvtepu8_epi16(ld128(p)), ld256(r));
        st128(
            o,
            _mm_packus_epi16(_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1)),
        );
    }
    scalar::add_residual_clamp(pred, resid, out);
}

#[target_feature(enable = "avx2")]
pub(crate) fn avg_u8_inplace_avx2(a: &mut [u8], b: &[u8]) {
    let b = &b[..a.len()];
    let (a32, a) = a.as_chunks_mut::<32>();
    let (b32, b) = b.as_chunks::<32>();
    for (x, y) in a32.iter_mut().zip(b32) {
        st256(x, _mm256_avg_epu8(ld256(x), ld256(y)));
    }
    let (a16, a) = a.as_chunks_mut::<16>();
    let (b16, b) = b.as_chunks::<16>();
    for (x, y) in a16.iter_mut().zip(b16) {
        st128(x, _mm_avg_epu8(ld128(x), ld128(y)));
    }
    scalar::avg_u8_inplace(a, b);
}

// ------------------------------------------------- f64 blend / tx

#[target_feature(enable = "avx2")]
pub(crate) fn blend_accumulate_avx2(acc: &mut [f64], src: &[u8], weight: f64) {
    let src = &src[..acc.len()];
    let wv = _mm256_set1_pd(weight);
    let (a4, acc) = acc.as_chunks_mut::<4>();
    let (s4, src) = src.as_chunks::<4>();
    for (a, s) in a4.iter_mut().zip(s4) {
        let v = _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(i32::from_le_bytes(*s))));
        // Separate mul + add — FMA contraction would change rounding.
        stpd(a, _mm256_add_pd(ldpd(a), _mm256_mul_pd(v, wv)));
    }
    scalar::blend_accumulate(acc, src, weight);
}

/// One row of a transform pass: `Σ_s m_cols[s][q] * row[s]` for the
/// `n = 4 * K` columns `q`, where row `s` of the transposed matrix is K
/// four-lane blocks. The whole row is K ymm accumulators, so the CPU
/// has K independent `addpd` dependency chains in flight; each
/// output's own accumulation still runs in ascending `s` order — the
/// exact scalar arithmetic. One `set1` broadcast per `s` is amortized
/// over all K vectors.
#[inline]
#[target_feature(enable = "avx2")]
fn tx_cols_avx2<const K: usize>(m_cols: &[[[f64; 4]; K]], row: &[f64]) -> [__m256d; K] {
    let mut acc = [_mm256_setzero_pd(); K];
    for (m, &r) in m_cols.iter().zip(row) {
        let w = _mm256_set1_pd(r);
        for (a, m) in acc.iter_mut().zip(m) {
            *a = _mm256_add_pd(*a, _mm256_mul_pd(ldpd(m), w));
        }
    }
    acc
}

/// One `n × n` transform pass, `n = 4 * K`: `out[j*n + q]` (contiguous)
/// or `out[q*n + j]` (`STRIDED`) `= Σ_s m_cols[s*n + q] * input[j*n +
/// s]`. `m_cols` is the transposed matrix (`m_cols[s*n + q] ==
/// m_rows[q*n + s]`), giving contiguous lane loads.
#[inline]
#[target_feature(enable = "avx2")]
fn tx_rows_avx2<const K: usize, const STRIDED: bool>(
    m_cols: &[f64],
    input: &[f64],
    out: &mut [f64],
) {
    let n = 4 * K;
    let (m_cols, _) = m_cols[..n * n].as_chunks::<4>().0.as_chunks::<K>();
    let rows = input[..n * n]
        .chunks_exact(n)
        .map(|row| tx_cols_avx2(m_cols, row));
    if STRIDED {
        let out = &mut out[..n * n];
        for (j, acc) in rows.enumerate() {
            let mut vals = [[0.0; 4]; K];
            vals.iter_mut().zip(acc).for_each(|(v, a)| stpd(v, a));
            for (o, &v) in out[j..].iter_mut().step_by(n).zip(vals.as_flattened()) {
                *o = v;
            }
        }
    } else {
        let (dst, _) = out[..n * n].as_chunks_mut::<4>().0.as_chunks_mut::<K>();
        for (d, acc) in dst.iter_mut().zip(rows) {
            d.iter_mut().zip(acc).for_each(|(o, a)| stpd(o, a));
        }
    }
}

/// A transform pass at one of the real transform sizes (4, 8, 16, 32),
/// with one accumulator per four columns.
#[target_feature(enable = "avx2")]
pub(crate) fn tx_pass_avx2<const STRIDED: bool>(
    m_cols: &[f64],
    input: &[f64],
    n: usize,
    out: &mut [f64],
) {
    match n {
        4 => tx_rows_avx2::<1, STRIDED>(m_cols, input, out),
        8 => tx_rows_avx2::<2, STRIDED>(m_cols, input, out),
        16 => tx_rows_avx2::<4, STRIDED>(m_cols, input, out),
        32 => tx_rows_avx2::<8, STRIDED>(m_cols, input, out),
        _ => unreachable!("no AVX2 transform pass of size {n}"),
    }
}

// --------------------------------------------------- round/clamp store

/// Round-half-away-from-zero has no direct SIMD instruction, but
/// decomposes exactly: `t = trunc(v)` (`round_pd` toward zero), then
/// `f = v - t` (exact — `t` and `v` lie in the same binade, so the
/// subtraction is lossless by the Sterbenz lemma), then add ±1.0 where
/// `|f| >= 0.5`. That reproduces `f64::round` bit-for-bit on every
/// finite input; the clamped integral f64 then converts exactly
/// through `cvttpd`.
#[inline]
#[target_feature(enable = "avx2")]
fn round_clamp4(v: __m256d) -> __m128i {
    let t = _mm256_round_pd::<_MM_FROUND_TRUNC>(v);
    let f = _mm256_sub_pd(v, t);
    let up = _mm256_and_pd(
        _mm256_cmp_pd::<_CMP_GE_OQ>(f, _mm256_set1_pd(0.5)),
        _mm256_set1_pd(1.0),
    );
    let dn = _mm256_and_pd(
        _mm256_cmp_pd::<_CMP_LE_OQ>(f, _mm256_set1_pd(-0.5)),
        _mm256_set1_pd(-1.0),
    );
    let r = _mm256_add_pd(_mm256_add_pd(t, up), dn);
    let lo = _mm256_set1_pd(i16::MIN as f64);
    let hi = _mm256_set1_pd(i16::MAX as f64);
    _mm256_cvttpd_epi32(_mm256_max_pd(_mm256_min_pd(r, hi), lo))
}

/// Eight values per iteration: two [`round_clamp4`] groups narrowed by
/// one saturating i32→i16 pack (values are already inside the i16
/// range, so the saturation never engages).
#[target_feature(enable = "avx2")]
pub(crate) fn round_clamp_i16_avx2(src: &[f64], out: &mut [i16]) {
    let out = &mut out[..src.len()];
    let (s8, src) = src.as_chunks::<8>();
    let (o8, out) = out.as_chunks_mut::<8>();
    for (s, o) in s8.iter().zip(o8) {
        let [lo, hi] = s.as_chunks::<4>().0 else {
            unreachable!("eight lanes are two groups of four")
        };
        let (lo, hi) = (round_clamp4(ldpd(lo)), round_clamp4(ldpd(hi)));
        st128(o, _mm_packs_epi32(lo, hi));
    }
    scalar::round_clamp_i16(src, out);
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
pub(crate) fn quantize_levels_avx2(coeffs: &[f64], step: f64, deadzone: f64, levels: &mut [i32]) {
    let levels = &mut levels[..coeffs.len()];
    let vstep = _mm256_set1_pd(step);
    let vdz = _mm256_set1_pd(deadzone);
    let vcap = _mm256_set1_pd((1i32 << 20) as f64);
    let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
    let sign_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MIN));
    let one = _mm256_set1_pd(1.0);
    let (c4, coeffs) = coeffs.as_chunks::<4>();
    let (l4, levels) = levels.as_chunks_mut::<4>();
    for (c, l) in c4.iter().zip(l4) {
        let v = ldpd(c);
        let a = _mm256_and_pd(v, abs_mask);
        let mag =
            _mm256_round_pd::<_MM_FROUND_TO_NEG_INF>(_mm256_add_pd(_mm256_div_pd(a, vstep), vdz));
        let capped = _mm256_min_pd(mag, vcap);
        let sign = _mm256_or_pd(_mm256_and_pd(v, sign_mask), one);
        st128(l, _mm256_cvttpd_epi32(_mm256_mul_pd(capped, sign)));
    }
    scalar::quantize_levels(coeffs, step, deadzone, levels);
}

/// Level reconstruction: `i32 -> f64` widening is exact and the
/// per-lane multiply is the same IEEE operation the scalar loop
/// performs, so the output is bit-identical.
#[target_feature(enable = "avx2")]
pub(crate) fn dequantize_coeffs_avx2(levels: &[i32], step: f64, coeffs: &mut [f64]) {
    let coeffs = &mut coeffs[..levels.len()];
    let vstep = _mm256_set1_pd(step);
    let (l4, levels) = levels.as_chunks::<4>();
    let (c4, coeffs) = coeffs.as_chunks_mut::<4>();
    for (l, c) in l4.iter().zip(c4) {
        stpd(c, _mm256_mul_pd(_mm256_cvtepi32_pd(ld128(l)), vstep));
    }
    scalar::dequantize_coeffs(levels, step, coeffs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Every kernel that sizes one operand from another must panic, not
    /// read or write past the end, when that operand is one element
    /// short. The kernels are called directly, without the `_with`
    /// wrappers' length asserts in front of them, so what is pinned here
    /// is the kernels' own bounds: each `data` case puts the block
    /// against the buffer's last byte.
    #[test]
    fn kernels_panic_on_a_short_operand() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        // SAFETY: the CPU reported AVX2 just above.
        unsafe { short_operand_cases() }
    }

    #[target_feature(enable = "avx2")]
    fn short_operand_cases() {
        const MAX: u64 = u64::MAX;
        const M: &[f64] = &[0.0; 64];
        const SHORT: &[f64] = &[0.0; 63];
        let cases: [(&str, &dyn Fn()); 31] = [
            ("sad_slice b", &|| {
                sad_slice_avx2(&[0; 32], &[0; 31]);
            }),
            ("sad_rows_thresholded b", &|| {
                sad_rows_thresholded_avx2(&[0; 64], &[0; 63], 16, MAX);
            }),
            ("sad_block_clamped other", &|| {
                sad_block_clamped_avx2(&[0; 256], 16, 16, -4, 0, 8, 8, &[0; 63], MAX);
            }),
            ("sad_block_clamped data", &|| {
                sad_block_clamped_avx2(&[0; 255], 16, 16, 12, 8, 8, 8, &[0; 64], MAX);
            }),
            ("sad_block_thresholded other", &|| {
                sad_block_thresholded_avx2(&[0; 256], 16, 0, 0, 8, 8, &[0; 63], MAX);
            }),
            ("sad_block_thresholded data", &|| {
                sad_block_thresholded_avx2(&[0; 255], 16, 8, 8, 8, 8, &[0; 64], MAX);
            }),
            ("satd cur", &|| {
                satd_avx2(&[0; 255], &[0; 256], 16, 16);
            }),
            ("satd pred", &|| {
                satd_avx2(&[0; 256], &[0; 255], 16, 16);
            }),
            ("hpel dst", &|| {
                hpel_avx2(&[0; 256], 16, 0, 0, 1, 1, 8, 8, &mut [0; 63]);
            }),
            ("hpel data (1, 0)", &|| {
                hpel_avx2(&[0; 255], 16, 7, 8, 1, 0, 8, 8, &mut [0; 64]);
            }),
            ("hpel data (0, 1)", &|| {
                hpel_avx2(&[0; 255], 16, 8, 7, 0, 1, 8, 8, &mut [0; 64]);
            }),
            ("hpel data (1, 1)", &|| {
                hpel_avx2(&[0; 255], 16, 7, 7, 1, 1, 8, 8, &mut [0; 64]);
            }),
            ("compute_residual pred", &|| {
                compute_residual_avx2(&[0; 32], &[0; 31], &mut [0; 32]);
            }),
            ("compute_residual out", &|| {
                compute_residual_avx2(&[0; 32], &[0; 32], &mut [0; 31]);
            }),
            ("add_residual_clamp resid", &|| {
                add_residual_clamp_avx2(&[0; 32], &[0; 31], &mut [0; 32]);
            }),
            ("add_residual_clamp out", &|| {
                add_residual_clamp_avx2(&[0; 32], &[0; 32], &mut [0; 31]);
            }),
            ("avg_u8_inplace b", &|| {
                avg_u8_inplace_avx2(&mut [0; 32], &[0; 31]);
            }),
            ("blend_accumulate src", &|| {
                blend_accumulate_avx2(&mut [0.0; 32], &[0; 31], 0.5);
            }),
            ("tx_pass contig m_cols", &|| {
                tx_pass_avx2::<false>(SHORT, M, 8, &mut [0.0; 64]);
            }),
            ("tx_pass contig input", &|| {
                tx_pass_avx2::<false>(M, SHORT, 8, &mut [0.0; 64]);
            }),
            ("tx_pass contig out", &|| {
                tx_pass_avx2::<false>(M, M, 8, &mut [0.0; 63]);
            }),
            ("tx_pass strided m_cols", &|| {
                tx_pass_avx2::<true>(SHORT, M, 8, &mut [0.0; 64]);
            }),
            ("tx_pass strided input", &|| {
                tx_pass_avx2::<true>(M, SHORT, 8, &mut [0.0; 64]);
            }),
            ("tx_pass strided out", &|| {
                tx_pass_avx2::<true>(M, M, 8, &mut [0.0; 63]);
            }),
            ("round_clamp_i16 out", &|| {
                round_clamp_i16_avx2(&[0.0; 32], &mut [0; 31]);
            }),
            ("quantize_levels levels", &|| {
                quantize_levels_avx2(&[0.0; 32], 4.0, 0.5, &mut [0; 31]);
            }),
            ("dequantize_coeffs coeffs", &|| {
                dequantize_coeffs_avx2(&[0; 32], 4.0, &mut [0.0; 31]);
            }),
            ("sad_slice b, 8-byte tail", &|| {
                sad_slice_avx2(&[0; 8], &[0; 7]);
            }),
            ("satd pred, 8×8 cell", &|| {
                satd_avx2(&[0; 64], &[0; 63], 8, 8);
            }),
            ("hpel dst, 16-wide row", &|| {
                hpel_avx2(&[0; 256], 16, 0, 0, 1, 0, 15, 1, &mut [0; 14]);
            }),
            ("tx_pass strided out, 4-point", &|| {
                tx_pass_avx2::<true>(&[0.0; 16], &[0.0; 16], 4, &mut [0.0; 15]);
            }),
        ];
        for (name, case) in cases {
            let outcome = catch_unwind(AssertUnwindSafe(case));
            assert!(outcome.is_err(), "{name}: short operand accepted");
        }
    }
}
