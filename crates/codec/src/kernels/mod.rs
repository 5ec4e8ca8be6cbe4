//! Pixel-kernel layer with runtime SIMD dispatch.
//!
//! Every hot inner loop of the encoder — SAD, Hadamard SATD, half-pel
//! motion compensation, residual/reconstruction, compound averaging,
//! temporal-filter blending, and the separable transform passes — goes
//! through this module. Each kernel has:
//!
//! - a portable scalar reference in `scalar` (the exact pre-kernel
//!   loop, moved not rewritten), and
//! - an x86_64 AVX2 implementation in `x86` that is **bit-identical**
//!   to the scalar reference (see the per-kernel proofs in `x86.rs`).
//!
//! The active backend is a process-wide dispatch table initialised
//! lazily from the `VCU_SIMD` environment variable:
//!
//! | value          | meaning                                          |
//! |----------------|--------------------------------------------------|
//! | `off`          | portable scalar kernels                          |
//! | `auto` / unset | AVX2 if the CPU reports it, else scalar (default)|
//!
//! Because both backends are byte-identical, the choice is invisible in
//! golden bitstreams, work-unit counters, and telemetry snapshots —
//! `VCU_SIMD` only moves wall-clock time. Tests pin this by running
//! whole encodes and per-kernel differential sweeps across backends.
//!
//! Each dispatched kernel also has a `*_with(backend, ...)` variant so
//! tests and micro-benches can exercise a specific backend without
//! mutating process-global state. The AVX2 kernels are safe functions
//! over slices, bounds-checked like any other; what is `unsafe` is
//! calling a `#[target_feature(enable = "avx2")]` function from code
//! built without AVX2, so every AVX2 arm runs only after its `_with`
//! wrapper has asserted that the CPU has the feature. The wrappers also
//! assert every slice length, in every build profile, so a short
//! operand panics with the same message in both backends.

pub(crate) mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::atomic::{AtomicU8, Ordering};
use vcu_media::Plane;

/// A kernel implementation set. Ordered by preference: higher is wider.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum Backend {
    /// Portable scalar reference kernels.
    Scalar = 1,
    /// 256-bit AVX2 kernels.
    Avx2 = 2,
}

impl Backend {
    /// Stable lower-case name (recorded in benchmark host stamps).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// 0 = uninitialised; otherwise a `Backend` discriminant. Benign race:
/// concurrent first calls compute the same value from the same env +
/// CPUID inputs, so double-initialisation is harmless.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn from_u8(v: u8) -> Backend {
    match v {
        1 => Backend::Scalar,
        2 => Backend::Avx2,
        _ => unreachable!("invalid backend discriminant {v}"),
    }
}

fn cpu_has(b: Backend) -> bool {
    match b {
        Backend::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => is_x86_feature_detected!("avx2"),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => false,
    }
}

/// Panics unless the CPU runs `b`. Every `_with` wrapper below calls
/// this on entry: it is the whole precondition of each `unsafe` call
/// into an AVX2 kernel.
#[inline]
fn assert_supported(b: Backend) {
    assert!(cpu_has(b), "backend {} not supported by this CPU", b.name());
}

/// Backends usable on this CPU, in ascending preference order
/// (`Scalar` first). `Scalar` is always present.
pub fn available_backends() -> Vec<Backend> {
    [Backend::Scalar, Backend::Avx2]
        .into_iter()
        .filter(|&b| cpu_has(b))
        .collect()
}

/// Resolves a `VCU_SIMD` value against CPU features. An unknown value
/// is a hard error so typos can't silently change what a benchmark
/// measured.
fn backend_for(simd: &str) -> Backend {
    match simd {
        "off" => Backend::Scalar,
        "" | "auto" => *available_backends().last().unwrap_or(&Backend::Scalar),
        other => panic!("unknown VCU_SIMD value {other:?}; expected off|auto"),
    }
}

/// The process-wide active backend, initialising from `VCU_SIMD` on
/// first use.
pub fn backend() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let b = backend_for(&std::env::var("VCU_SIMD").unwrap_or_default());
            ACTIVE.store(b as u8, Ordering::Relaxed);
            b
        }
        v => from_u8(v),
    }
}

/// Overrides the process-wide backend (tests / benches).
///
/// # Panics
///
/// Panics if the CPU does not support `b`.
pub fn set_backend(b: Backend) {
    assert_supported(b);
    ACTIVE.store(b as u8, Ordering::Relaxed);
}

// ----------------------------------------------------------------
// Dispatched kernels. Each `foo` reads the global backend and calls
// `foo_with`; the `_with` variant is the test/bench entry point.
// On non-x86_64 targets only `Scalar` is available, so every call
// takes the scalar path.
// ----------------------------------------------------------------

/// Plain SAD over two equal-length slices.
#[inline]
pub fn sad_slice(a: &[u8], b: &[u8]) -> u64 {
    sad_slice_with(backend(), a, b)
}

#[inline]
pub fn sad_slice_with(bk: Backend, a: &[u8], b: &[u8]) -> u64 {
    assert_supported(bk);
    assert_eq!(a.len(), b.len());
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe { x86::sad_slice_avx2(a, b) }
        }
        _ => scalar::sad_slice(a, b),
    }
}

/// Row-granular thresholded SAD over two `rows × bw` block buffers.
/// Returns `(sad, pixels_examined)`; see `scalar::sad_rows_thresholded`
/// for the metering contract.
#[inline]
pub fn sad_rows_thresholded(a: &[u8], b: &[u8], bw: usize, threshold: u64) -> (u64, u64) {
    sad_rows_thresholded_with(backend(), a, b, bw, threshold)
}

#[inline]
pub fn sad_rows_thresholded_with(
    bk: Backend,
    a: &[u8],
    b: &[u8],
    bw: usize,
    threshold: u64,
) -> (u64, u64) {
    assert_supported(bk);
    assert_eq!(a.len(), b.len());
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe { x86::sad_rows_thresholded_avx2(a, b, bw, threshold) }
        }
        _ => scalar::sad_rows_thresholded(a, b, bw, threshold),
    }
}

/// Thresholded SAD of a block of `plane` at `(x, y)` against `other`,
/// with row-granular early exit. Out-of-bounds positions use the
/// plane's edge-clamped path (identical for every backend); in-bounds
/// positions vectorize over the plane rows directly.
#[inline]
pub fn plane_sad_block_thresholded(
    plane: &Plane,
    x: isize,
    y: isize,
    bw: usize,
    bh: usize,
    other: &[u8],
    threshold: u64,
) -> (u64, u64) {
    plane_sad_block_thresholded_with(backend(), plane, x, y, bw, bh, other, threshold)
}

#[inline]
#[allow(clippy::too_many_arguments)]
pub fn plane_sad_block_thresholded_with(
    bk: Backend,
    plane: &Plane,
    x: isize,
    y: isize,
    bw: usize,
    bh: usize,
    other: &[u8],
    threshold: u64,
) -> (u64, u64) {
    assert_supported(bk);
    assert_eq!(other.len(), bw * bh, "block length mismatch");
    let in_bounds = x >= 0
        && y >= 0
        && (x as usize) + bw <= plane.width()
        && (y as usize) + bh <= plane.height();
    match bk {
        // Edge-clamped fetch: a clamped row decomposes into a
        // replicated left border + contiguous middle + replicated
        // right border, so the AVX2 backend stays exact here too.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if !in_bounds => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe {
                x86::sad_block_clamped_avx2(
                    plane.data(),
                    plane.width(),
                    plane.height(),
                    x,
                    y,
                    bw,
                    bh,
                    other,
                    threshold,
                )
            }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe {
                x86::sad_block_thresholded_avx2(
                    plane.data(),
                    plane.width(),
                    x as usize,
                    y as usize,
                    bw,
                    bh,
                    other,
                    threshold,
                )
            }
        }
        _ => plane.sad_block_thresholded(x, y, bw, bh, other, threshold),
    }
}

/// SATD over 8×8 Hadamard blocks (abs-diff fallback on partial edges)
/// — a better rate proxy than SAD for mode decisions, because it prices
/// residuals in (roughly) the transform domain the coder actually pays
/// bits in.
#[inline]
pub fn satd(cur: &[u8], pred: &[u8], bw: usize, bh: usize) -> u64 {
    satd_with(backend(), cur, pred, bw, bh)
}

#[inline]
pub fn satd_with(bk: Backend, cur: &[u8], pred: &[u8], bw: usize, bh: usize) -> u64 {
    assert_supported(bk);
    assert_eq!(cur.len(), bw * bh);
    assert_eq!(pred.len(), bw * bh);
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe { x86::satd_avx2(cur, pred, bw, bh) }
        }
        _ => scalar::satd(cur, pred, bw, bh),
    }
}

/// Half-pel block fetch: the dispatched form of
/// [`Plane::copy_block_hpel`]. Full-pel fetches and blocks touching the
/// clamped border delegate to the plane (identical for every backend);
/// interior half-pel blocks use the vectorized 2-tap/4-tap kernels.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn plane_copy_block_hpel(
    plane: &Plane,
    x: isize,
    y: isize,
    fx: u8,
    fy: u8,
    bw: usize,
    bh: usize,
    dst: &mut [u8],
) {
    plane_copy_block_hpel_with(backend(), plane, x, y, fx, fy, bw, bh, dst)
}

#[inline]
#[allow(clippy::too_many_arguments)]
pub fn plane_copy_block_hpel_with(
    bk: Backend,
    plane: &Plane,
    x: isize,
    y: isize,
    fx: u8,
    fy: u8,
    bw: usize,
    bh: usize,
    dst: &mut [u8],
) {
    assert_supported(bk);
    assert_eq!(dst.len(), bw * bh, "destination length mismatch");
    assert!(fx <= 1 && fy <= 1, "fractions are half-pel numerators");
    if (fx == 0 && fy == 0) || bk == Backend::Scalar {
        return plane.copy_block_hpel(x, y, fx, fy, bw, bh, dst);
    }
    // Only `Avx2` reaches here, and it exists only on x86_64.
    #[cfg(target_arch = "x86_64")]
    {
        let need_w = bw + fx as usize;
        let need_h = bh + fy as usize;
        let interior = x >= 0
            && y >= 0
            && (x as usize) + need_w <= plane.width()
            && (y as usize) + need_h <= plane.height();
        if interior {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            return unsafe {
                x86::hpel_avx2(
                    plane.data(),
                    plane.width(),
                    x as usize,
                    y as usize,
                    fx,
                    fy,
                    bw,
                    bh,
                    dst,
                )
            };
        }
        // Border-touching fractional fetch: materialize the clamped
        // (bw+fx) x (bh+fy) support once, then run the same interior
        // kernels over it. The support holds exactly the `get_clamped`
        // values the scalar path reads, so the taps see identical
        // inputs and produce identical bytes.
        const MAX_SUPPORT: usize = 65 * 65;
        if need_w * need_h > MAX_SUPPORT {
            return plane.copy_block_hpel(x, y, fx, fy, bw, bh, dst);
        }
        let mut support = [0u8; MAX_SUPPORT];
        plane.copy_block_clamped(x, y, need_w, need_h, &mut support[..need_w * need_h]);
        // SAFETY: `assert_supported` checked that this CPU has AVX2.
        unsafe {
            x86::hpel_avx2(
                &support[..need_w * need_h],
                need_w,
                0,
                0,
                fx,
                fy,
                bw,
                bh,
                dst,
            )
        };
    }
}

/// Spatial residual `cur - pred` as i16.
#[inline]
pub fn compute_residual(cur: &[u8], pred: &[u8], out: &mut [i16]) {
    compute_residual_with(backend(), cur, pred, out)
}

#[inline]
pub fn compute_residual_with(bk: Backend, cur: &[u8], pred: &[u8], out: &mut [i16]) {
    assert_supported(bk);
    assert_eq!(cur.len(), pred.len());
    assert_eq!(cur.len(), out.len());
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe { x86::compute_residual_avx2(cur, pred, out) }
        }
        _ => scalar::compute_residual(cur, pred, out),
    }
}

/// Reconstruction add: `out[i] = clamp(pred[i] + resid[i], 0, 255)`.
#[inline]
pub fn add_residual_clamp(pred: &[u8], resid: &[i16], out: &mut [u8]) {
    add_residual_clamp_with(backend(), pred, resid, out)
}

#[inline]
pub fn add_residual_clamp_with(bk: Backend, pred: &[u8], resid: &[i16], out: &mut [u8]) {
    assert_supported(bk);
    assert_eq!(pred.len(), resid.len());
    assert_eq!(pred.len(), out.len());
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe { x86::add_residual_clamp_avx2(pred, resid, out) }
        }
        _ => scalar::add_residual_clamp(pred, resid, out),
    }
}

/// Compound-prediction average `a[i] = ceil((a[i] + b[i]) / 2)`.
#[inline]
pub fn avg_u8_inplace(a: &mut [u8], b: &[u8]) {
    avg_u8_inplace_with(backend(), a, b)
}

#[inline]
pub fn avg_u8_inplace_with(bk: Backend, a: &mut [u8], b: &[u8]) {
    assert_supported(bk);
    assert_eq!(a.len(), b.len());
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe { x86::avg_u8_inplace_avx2(a, b) }
        }
        _ => scalar::avg_u8_inplace(a, b),
    }
}

/// Temporal-filter blend `acc[i] += src[i] * weight` (independent f64
/// chains, so lane grouping cannot change rounding).
#[inline]
pub fn blend_accumulate(acc: &mut [f64], src: &[u8], weight: f64) {
    blend_accumulate_with(backend(), acc, src, weight)
}

#[inline]
pub fn blend_accumulate_with(bk: Backend, acc: &mut [f64], src: &[u8], weight: f64) {
    assert_supported(bk);
    assert_eq!(acc.len(), src.len());
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe { x86::blend_accumulate_avx2(acc, src, weight) }
        }
        _ => scalar::blend_accumulate(acc, src, weight),
    }
}

/// Separable-transform pass with strided output: `out[q*n + j] = Σ_s
/// m_rows[q*n + s] * input[j*n + s]`. `m_cols` must be the transpose of
/// `m_rows` (the AVX2 backend loads matrix columns contiguously; scalar
/// reads `m_rows` exactly as the pre-kernel code did). Per-output
/// accumulation order is ascending `s` in every backend, so f64 results
/// are bit-identical. Every real transform size (4/8/16/32) takes the
/// AVX2 path; other sizes run the scalar reference.
#[inline]
pub fn tx_pass_strided(m_rows: &[f64], m_cols: &[f64], input: &[f64], n: usize, out: &mut [f64]) {
    tx_pass_strided_with(backend(), m_rows, m_cols, input, n, out)
}

#[inline]
pub fn tx_pass_strided_with(
    bk: Backend,
    m_rows: &[f64],
    m_cols: &[f64],
    input: &[f64],
    n: usize,
    out: &mut [f64],
) {
    assert_supported(bk);
    debug_assert!(n.is_multiple_of(2), "transform sizes are even");
    assert_tx_lengths(m_rows, m_cols, input, n, out);
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if matches!(n, 4 | 8 | 16 | 32) => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe { x86::tx_pass_avx2::<true>(m_cols, input, n, out) }
        }
        _ => scalar::tx_pass_strided(m_rows, input, n, out),
    }
}

/// Separable-transform pass with contiguous output: `out[j*n + q] = Σ_s
/// input[j*n + s] * m_rows[q*n + s]`. Same `m_cols` contract and size
/// dispatch as [`tx_pass_strided`].
#[inline]
pub fn tx_pass_contig(m_rows: &[f64], m_cols: &[f64], input: &[f64], n: usize, out: &mut [f64]) {
    tx_pass_contig_with(backend(), m_rows, m_cols, input, n, out)
}

#[inline]
pub fn tx_pass_contig_with(
    bk: Backend,
    m_rows: &[f64],
    m_cols: &[f64],
    input: &[f64],
    n: usize,
    out: &mut [f64],
) {
    assert_supported(bk);
    debug_assert!(n.is_multiple_of(2), "transform sizes are even");
    assert_tx_lengths(m_rows, m_cols, input, n, out);
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if matches!(n, 4 | 8 | 16 | 32) => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe { x86::tx_pass_avx2::<false>(m_cols, input, n, out) }
        }
        _ => scalar::tx_pass_contig(m_rows, input, n, out),
    }
}

/// Every operand of a transform pass is one `n × n` matrix.
#[inline]
fn assert_tx_lengths(m_rows: &[f64], m_cols: &[f64], input: &[f64], n: usize, out: &[f64]) {
    for len in [m_rows.len(), m_cols.len(), input.len(), out.len()] {
        assert_eq!(len, n * n, "transform operand is not n * n");
    }
}

/// Rounds each f64 half-away-from-zero, clamps to the i16 range, and
/// narrows — the inverse transform's final store. The AVX2 form is
/// bit-identical to the scalar loop (see `x86.rs`).
#[inline]
pub fn round_clamp_i16(src: &[f64], out: &mut [i16]) {
    round_clamp_i16_with(backend(), src, out)
}

#[inline]
pub fn round_clamp_i16_with(bk: Backend, src: &[f64], out: &mut [i16]) {
    assert_supported(bk);
    assert_eq!(src.len(), out.len());
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe { x86::round_clamp_i16_avx2(src, out) }
        }
        _ => scalar::round_clamp_i16(src, out),
    }
}

/// Dead-zone quantization of transform coefficients to integer
/// levels. Inputs must be finite (transform outputs always are); on
/// finite inputs the AVX2 path is bit-identical — `vdivpd` is the
/// same correctly-rounded division, `floor` maps to `round_pd`
/// toward negative infinity, and the magnitude cap commutes with the
/// f64→i32 conversion (see `x86.rs`).
#[inline]
pub fn quantize_levels(coeffs: &[f64], step: f64, deadzone: f64, levels: &mut [i32]) {
    quantize_levels_with(backend(), coeffs, step, deadzone, levels)
}

#[inline]
pub fn quantize_levels_with(
    bk: Backend,
    coeffs: &[f64],
    step: f64,
    deadzone: f64,
    levels: &mut [i32],
) {
    assert_supported(bk);
    assert_eq!(coeffs.len(), levels.len());
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe { x86::quantize_levels_avx2(coeffs, step, deadzone, levels) }
        }
        _ => scalar::quantize_levels(coeffs, step, deadzone, levels),
    }
}

/// Reconstructs coefficient values from quantized levels. The i32→f64
/// widening is exact and the multiply is the same IEEE operation in
/// every backend, so the result is bit-identical by construction.
#[inline]
pub fn dequantize_coeffs(levels: &[i32], step: f64, coeffs: &mut [f64]) {
    dequantize_coeffs_with(backend(), levels, step, coeffs)
}

#[inline]
pub fn dequantize_coeffs_with(bk: Backend, levels: &[i32], step: f64, coeffs: &mut [f64]) {
    assert_supported(bk);
    assert_eq!(levels.len(), coeffs.len());
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: `assert_supported` checked that this CPU has AVX2.
            unsafe { x86::dequantize_coeffs_avx2(levels, step, coeffs) }
        }
        _ => scalar::dequantize_coeffs(levels, step, coeffs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available() {
        let avail = available_backends();
        assert!(avail.contains(&Backend::Scalar));
        // Preference order is ascending.
        let mut sorted = avail.clone();
        sorted.sort();
        assert_eq!(avail, sorted);
    }

    #[test]
    fn backend_names_roundtrip() {
        for b in [Backend::Scalar, Backend::Avx2] {
            assert_eq!(from_u8(b as u8), b);
            assert!(!b.name().is_empty());
        }
    }

    #[test]
    fn vcu_simd_accepts_off_and_auto_only() {
        assert_eq!(backend_for("off"), Backend::Scalar);
        let best = *available_backends().last().unwrap();
        assert_eq!(backend_for("auto"), best);
        assert_eq!(backend_for(""), best);
        for retired in ["scalar", "sse2", "avx2", "Auto"] {
            let err = std::panic::catch_unwind(|| backend_for(retired)).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("expected off|auto"), "{retired}: {msg}");
        }
    }
}
