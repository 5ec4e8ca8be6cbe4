//! Adaptive binary arithmetic (boolean) coder.
//!
//! This is a VP8/VP9-style "bool coder": each binary decision is coded
//! against an 8-bit probability, and probabilities adapt per context as
//! symbols are coded. The paper notes entropy coding is
//! "sequential-logic-heavy and consequently challenging to implement in
//! hardware" (§3.2); here it is also the piece that turns our residual
//! data into a genuinely compressed bitstream, so RD curves are real.
//!
//! Layout: [`BoolEncoder`] / [`BoolDecoder`] implement the arithmetic
//! coding core and the one [`BoolCoder`] trait the syntax is written
//! against; [`AdaptiveModel`] supplies per-context adaptive
//! probabilities and binarizes integers (unary + exp-Golomb hybrid) for
//! coefficient magnitudes and motion vector components. Every syntax
//! element is coded by one function both sides call: the encoder
//! writes the value it passes, the decoder reads one and ignores it.

/// Probability that a bit is 0, in `[1, 255]` out of 256.
pub(crate) type Prob = u8;

/// Probability adaptation rate shift: larger adapts slower.
const ADAPT_SHIFT: u8 = 5;

/// Adapts a probability towards an observed bit (VP8-style shift update).
#[inline]
pub(crate) fn adapt(p: Prob, bit: bool) -> Prob {
    if bit {
        // Bit was 1: probability of zero decreases.
        (p - (p >> ADAPT_SHIFT)).max(1)
    } else {
        p + ((255 - p) >> ADAPT_SHIFT)
    }
}

/// One side of the bool coder. The encoder writes the value it is
/// given and returns it; the decoder reads a value and ignores the
/// argument. Syntax written against this trait is the encoder and the
/// decoder at once.
pub trait BoolCoder {
    /// Codes `bit` at probability `prob` (of the bit being 0).
    fn bit(&mut self, bit: bool, prob: Prob) -> bool;

    /// Codes a probability-1/2 bit (no model).
    #[inline]
    fn raw(&mut self, bit: bool) -> bool {
        self.bit(bit, 128)
    }

    /// Codes the low `n` bits of `v` as raw bits, most significant first.
    fn bits(&mut self, v: u32, n: u32) -> u32 {
        (0..n)
            .rev()
            .fold(0, |acc, i| (acc << 1) | self.raw((v >> i) & 1 == 1) as u32)
    }
}

/// Arithmetic encoder over a byte buffer.
///
/// An LZMA-style binary range coder: 32-bit range, 64-bit low with a
/// cached-byte carry deferral, 8-bit probabilities. The first output
/// byte is a structural zero that [`BoolDecoder`] consumes at init.
///
/// # Example
///
/// ```
/// use vcu_codec::entropy::{BoolEncoder, BoolDecoder};
///
/// let mut enc = BoolEncoder::new();
/// enc.put(true, 128);
/// enc.put(false, 200);
/// let bytes = enc.finish();
/// let mut dec = BoolDecoder::new(&bytes);
/// assert!(dec.get(128));
/// assert!(!dec.get(200));
/// ```
#[derive(Debug, Clone)]
pub struct BoolEncoder {
    low: u64,
    range: u32,
    cache: u8,
    /// Number of pending bytes (the cache byte plus deferred 0xFF runs).
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for BoolEncoder {
    fn default() -> Self {
        Self::new()
    }
}

const TOP: u32 = 1 << 24;

impl BoolEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        BoolEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    /// Encodes one bit with probability `prob` (of the bit being 0).
    #[inline]
    pub fn put(&mut self, bit: bool, prob: Prob) {
        debug_assert!(prob >= 1);
        let bound = (self.range >> 8) * prob as u32;
        if bit {
            self.low += bound as u64;
            self.range -= bound;
        } else {
            self.range = bound;
        }
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    #[inline]
    fn shift_low(&mut self) {
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
            self.out.push(self.cache.wrapping_add(carry));
            while self.cache_size > 1 {
                self.out.push(0xFFu8.wrapping_add(carry));
                self.cache_size -= 1;
            }
            self.cache = (self.low >> 24) as u8;
            self.cache_size = 0;
        }
        self.cache_size += 1;
        // Keep only the low 24 bits before shifting: the byte at bits
        // 24..32 has been captured in `cache` (or deferred as a 0xFF run).
        self.low = ((self.low as u32) << 8) as u64;
    }

    /// Flushes and returns the coded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// Arithmetic decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct BoolDecoder<'a> {
    input: &'a [u8],
    pos: usize,
    code: u32,
    range: u32,
}

impl<'a> BoolDecoder<'a> {
    /// Creates a decoder over `input`. Reading past the end yields
    /// zero bytes (the encoder's flush guarantees enough padding for
    /// well-formed streams; truncation shows up as corrupt symbols,
    /// which callers detect with consistency checks).
    pub fn new(input: &'a [u8]) -> Self {
        let mut d = BoolDecoder {
            input,
            pos: 0,
            code: 0,
            range: u32::MAX,
        };
        // Consume the encoder's structural zero byte plus 4 code bytes.
        for _ in 0..5 {
            d.code = (d.code << 8) | d.next_byte() as u32;
        }
        d
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Decodes one bit with probability `prob` (of the bit being 0).
    #[inline]
    pub fn get(&mut self, prob: Prob) -> bool {
        let bound = (self.range >> 8) * prob as u32;
        let bit = self.code >= bound;
        if bit {
            self.code -= bound;
            self.range -= bound;
        } else {
            self.range = bound;
        }
        while self.range < TOP {
            self.code = (self.code << 8) | self.next_byte() as u32;
            self.range <<= 8;
        }
        bit
    }

    /// True if the decoder has consumed bytes beyond the input (a
    /// strong signal of truncation/corruption).
    pub fn overrun(&self) -> bool {
        self.pos > self.input.len().saturating_add(4)
    }
}

impl BoolCoder for BoolEncoder {
    #[inline]
    fn bit(&mut self, bit: bool, prob: Prob) -> bool {
        self.put(bit, prob);
        bit
    }
}

impl BoolCoder for BoolDecoder<'_> {
    #[inline]
    fn bit(&mut self, _: bool, prob: Prob) -> bool {
        self.get(prob)
    }
}

/// A bank of adaptive binary probabilities indexed by context.
///
/// Encoder and decoder each hold one and must apply identical updates;
/// determinism of `adapt` guarantees they stay in lockstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveModel {
    probs: Vec<Prob>,
}

impl AdaptiveModel {
    /// Creates `n` contexts, all initialized to 1/2.
    pub fn new(n: usize) -> Self {
        AdaptiveModel {
            probs: vec![128; n],
        }
    }

    /// Codes `bit` in context `ctx`, adapting the model, and returns the
    /// bit coded.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    #[inline]
    pub fn code(&mut self, c: &mut impl BoolCoder, ctx: usize, bit: bool) -> bool {
        let p = self.probs[ctx];
        let bit = c.bit(bit, p);
        self.probs[ctx] = adapt(p, bit);
        bit
    }

    /// [`AdaptiveModel::code`] on the encoder.
    #[inline]
    pub fn encode(&mut self, enc: &mut BoolEncoder, ctx: usize, bit: bool) {
        self.code(enc, ctx, bit);
    }

    /// Codes a non-negative integer as a unary bucket (0, 1, 2, or 3+)
    /// in contexts `base..base+3`, then for 3+ the exp-Golomb code of
    /// `v - 3` with its prefix in context `base+3` and a raw suffix.
    /// Every `u32` round-trips; a corrupt prefix longer than any `u32`
    /// needs saturates to `u32::MAX` instead of panicking, and
    /// downstream range checks reject it.
    pub fn code_uint(&mut self, c: &mut impl BoolCoder, base: usize, v: u32) -> u32 {
        let mut bucket = 0;
        while bucket < 3 && self.code(c, base + bucket as usize, v > bucket) {
            bucket += 1;
        }
        if bucket < 3 {
            return bucket;
        }
        // `v - 3 + 1` has `nbits` significant bits: `nbits - 1` prefix
        // ones, a zero, then its low `nbits - 1` bits.
        let golomb = v.wrapping_sub(2);
        let want = 32 - golomb.leading_zeros();
        let mut nbits = 1;
        while self.code(c, base + 3, nbits < want) {
            nbits += 1;
            if nbits > 32 {
                return u32::MAX;
            }
        }
        let suffix = c.bits(golomb, nbits - 1);
        (((1u32 << (nbits - 1)) | suffix) - 1).saturating_add(3)
    }

    /// Codes a signed integer: its magnitude via
    /// [`AdaptiveModel::code_uint`], then a raw sign bit when nonzero.
    /// Every `i32` round-trips; a corrupt magnitude saturates.
    pub fn code_int(&mut self, c: &mut impl BoolCoder, base: usize, v: i32) -> i32 {
        let mag = self.code_uint(c, base, v.unsigned_abs()) as i64;
        if mag == 0 {
            return 0;
        }
        let v = if c.raw(v < 0) { -mag } else { mag };
        v.clamp(i32::MIN as i64, i32::MAX as i64) as i32
    }

    /// Estimated cost in (1/256)-bit units of coding `bit` in `ctx`
    /// *without* adapting. Nothing outside this module's tests calls it
    /// yet: mode and split decisions price syntax with fixed estimates
    /// (`mv_bits_estimate`) until rate-priced decisions land (ROADMAP
    /// items 11(a) and 16).
    pub fn cost(&self, ctx: usize, bit: bool) -> u32 {
        let p0 = self.probs[ctx] as f64 / 256.0;
        let p = if bit { 1.0 - p0 } else { p0 };
        (-(p.max(1e-6)).log2() * 256.0) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_bits_round_trip() {
        let mut enc = BoolEncoder::new();
        let pattern = [true, false, true, true, false, false, true, false];
        for &b in &pattern {
            enc.raw(b);
        }
        enc.bits(0xABCD, 16);
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(&bytes);
        for &b in &pattern {
            assert_eq!(dec.raw(false), b);
        }
        assert_eq!(dec.bits(0, 16), 0xABCD);
    }

    #[test]
    fn skewed_probability_round_trip() {
        let mut enc = BoolEncoder::new();
        let bits: Vec<bool> = (0..1000).map(|i| i % 17 == 0).collect();
        for &b in &bits {
            enc.put(b, 240); // mostly zeros, high p0.
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(&bytes);
        for &b in &bits {
            assert_eq!(dec.get(240), b);
        }
    }

    #[test]
    fn skewed_stream_compresses() {
        // 10_000 mostly-zero bits at p0=250 should take far less than
        // 1250 bytes.
        let mut enc = BoolEncoder::new();
        for i in 0..10_000 {
            enc.put(i % 100 == 0, 250);
        }
        let bytes = enc.finish();
        assert!(
            bytes.len() < 400,
            "poor compression: {} bytes for 10000 skewed bits",
            bytes.len()
        );
    }

    #[test]
    fn adaptive_model_stays_in_sync() {
        let mut enc = BoolEncoder::new();
        let mut m_enc = AdaptiveModel::new(4);
        let bits: Vec<(usize, bool)> = (0..500).map(|i| (i % 4, (i * 7) % 13 < 4)).collect();
        for &(ctx, b) in &bits {
            m_enc.encode(&mut enc, ctx, b);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(&bytes);
        let mut m_dec = AdaptiveModel::new(4);
        for &(ctx, b) in &bits {
            assert_eq!(m_dec.code(&mut dec, ctx, false), b);
        }
        assert_eq!(m_enc, m_dec, "models diverged");
    }

    #[test]
    fn adaptation_learns_bias() {
        // Encoding a heavily biased stream adaptively should beat the
        // unadapted 1/2-probability cost substantially.
        let bits: Vec<bool> = (0..4000).map(|i| i % 50 == 0).collect();
        let mut enc_adapt = BoolEncoder::new();
        let mut model = AdaptiveModel::new(1);
        for &b in &bits {
            model.encode(&mut enc_adapt, 0, b);
        }
        let adaptive_len = enc_adapt.finish().len();
        let mut enc_flat = BoolEncoder::new();
        for &b in &bits {
            enc_flat.raw(b);
        }
        let flat_len = enc_flat.finish().len();
        assert!(
            adaptive_len * 3 < flat_len,
            "adaptive {adaptive_len} vs flat {flat_len}"
        );
    }

    #[test]
    fn uint_round_trip() {
        let values = [0u32, 1, 2, 3, 4, 5, 10, 63, 64, 100, 1000, 65535, 1 << 20];
        let mut enc = BoolEncoder::new();
        let mut me = AdaptiveModel::new(8);
        for &v in &values {
            me.code_uint(&mut enc, 0, v);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(&bytes);
        let mut md = AdaptiveModel::new(8);
        for &v in &values {
            assert_eq!(md.code_uint(&mut dec, 0, 0), v);
        }
    }

    #[test]
    fn int_round_trip() {
        let values = [0i32, 1, -1, 5, -5, 127, -128, 4000, -4000];
        let mut enc = BoolEncoder::new();
        let mut me = AdaptiveModel::new(8);
        for &v in &values {
            me.code_int(&mut enc, 0, v);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(&bytes);
        let mut md = AdaptiveModel::new(8);
        for &v in &values {
            assert_eq!(md.code_int(&mut dec, 0, 0), v);
        }
    }

    /// A prefix longer than any `u32` needs saturates the magnitude
    /// rather than panicking, and the sign then picks the `i32` bound.
    #[test]
    fn hostile_prefix_saturates() {
        let mut enc = BoolEncoder::new();
        let mut me = AdaptiveModel::new(8);
        for sign in [false, true] {
            for ctx in 0..3 {
                me.code(&mut enc, ctx, true);
            }
            for _ in 0..32 {
                me.code(&mut enc, 3, true);
            }
            enc.raw(sign);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(&bytes);
        let mut md = AdaptiveModel::new(8);
        assert_eq!(md.clone().code_uint(&mut dec.clone(), 0, 0), u32::MAX);
        assert_eq!(md.code_int(&mut dec, 0, 0), i32::MAX);
        assert_eq!(md.code_int(&mut dec, 0, 0), i32::MIN);
    }

    #[test]
    fn adapt_bounds() {
        let mut p: Prob = 128;
        for _ in 0..1000 {
            p = adapt(p, true);
        }
        assert!(p >= 1);
        for _ in 0..1000 {
            p = adapt(p, false);
        }
        assert!(p >= 200, "prob failed to adapt towards certain-zero: {p}");
    }

    #[test]
    fn cost_estimates_are_sane() {
        let m = AdaptiveModel::new(1);
        // At p=128 both bits cost ~1 bit = 256 units.
        assert!((m.cost(0, false) as i32 - 256).abs() <= 2);
        assert!((m.cost(0, true) as i32 - 256).abs() <= 2);
    }

    #[test]
    fn empty_input_decoder_yields_zeros() {
        let mut dec = BoolDecoder::new(&[]);
        // Must not panic; zero-fill behaviour.
        let _ = dec.raw(false);
        let _ = dec.bits(0, 16);
    }
}
