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
//! coding core; [`AdaptiveModel`] supplies per-context adaptive
//! probabilities; the `write_*`/`read_*` helpers binarize small
//! integers (unary + exp-Golomb hybrid) for coefficient magnitudes and
//! motion vector components.

/// Probability that a bit is 0, in `[1, 255]` out of 256.
pub type Prob = u8;

/// Probability adaptation rate shift: larger adapts slower.
const ADAPT_SHIFT: u8 = 5;

/// Adapts a probability towards an observed bit (VP8-style shift update).
#[inline]
pub fn adapt(p: Prob, bit: bool) -> Prob {
    if bit {
        // Bit was 1: probability of zero decreases.
        (p - (p >> ADAPT_SHIFT)).max(1)
    } else {
        p + ((255 - p) >> ADAPT_SHIFT)
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

    /// Encodes a bit at probability 1/2 (no model).
    #[inline]
    pub fn put_raw(&mut self, bit: bool) {
        self.put(bit, 128);
    }

    /// Encodes `n` raw bits of `v`, most significant first.
    pub fn put_bits(&mut self, v: u32, n: u32) {
        for i in (0..n).rev() {
            self.put_raw((v >> i) & 1 == 1);
        }
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

    /// Decodes a probability-1/2 bit.
    #[inline]
    pub fn get_raw(&mut self) -> bool {
        self.get(128)
    }

    /// Decodes `n` raw bits, most significant first.
    pub fn get_bits(&mut self, n: u32) -> u32 {
        let mut v = 0;
        for _ in 0..n {
            v = (v << 1) | self.get_raw() as u32;
        }
        v
    }

    /// True if the decoder has consumed bytes beyond the input (a
    /// strong signal of truncation/corruption).
    pub fn overrun(&self) -> bool {
        self.pos > self.input.len().saturating_add(4)
    }
}

/// A bank of adaptive binary probabilities indexed by context.
///
/// Encoder and decoder each hold one and must apply identical updates;
/// determinism of [`adapt`] guarantees they stay in lockstep.
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

    /// Number of contexts.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True if the model has no contexts.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Encodes `bit` in context `ctx`, adapting the model.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    #[inline]
    pub fn encode(&mut self, enc: &mut BoolEncoder, ctx: usize, bit: bool) {
        let p = self.probs[ctx];
        enc.put(bit, p);
        self.probs[ctx] = adapt(p, bit);
    }

    /// Decodes a bit in context `ctx`, adapting the model.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    #[inline]
    pub fn decode(&mut self, dec: &mut BoolDecoder<'_>, ctx: usize) -> bool {
        let p = self.probs[ctx];
        let bit = dec.get(p);
        self.probs[ctx] = adapt(p, bit);
        bit
    }

    /// Estimated cost in (1/256)-bit units of coding `bit` in `ctx`
    /// *without* adapting — used by RDO to price candidate modes.
    pub fn cost(&self, ctx: usize, bit: bool) -> u32 {
        let p0 = self.probs[ctx] as f64 / 256.0;
        let p = if bit { 1.0 - p0 } else { p0 };
        (-(p.max(1e-6)).log2() * 256.0) as u32
    }
}

/// Writes a non-negative integer with a unary prefix + exp-Golomb tail,
/// using `model` contexts `base..base+8` for the prefix bits.
pub fn write_uint(enc: &mut BoolEncoder, model: &mut AdaptiveModel, base: usize, v: u32) {
    // Unary-coded bucket: 0, 1, 2, 3, then exp-Golomb remainder.
    let bucket = (v.min(3)) as usize;
    for i in 0..bucket {
        model.encode(enc, base + i, true);
    }
    if v < 3 {
        model.encode(enc, base + bucket, false);
        return;
    }
    // v >= 3: encode v - 3 in exp-Golomb (raw bits).
    let rem = v - 3;
    let nbits = 32 - (rem + 1).leading_zeros();
    for _ in 0..nbits - 1 {
        model.encode(enc, base + 3, true);
    }
    model.encode(enc, base + 3, false);
    // nbits-1 suffix bits of (rem+1).
    enc.put_bits((rem + 1) & ((1 << (nbits - 1)) - 1), nbits - 1);
}

/// Reads an integer written by [`write_uint`].
pub fn read_uint(dec: &mut BoolDecoder<'_>, model: &mut AdaptiveModel, base: usize) -> u32 {
    let mut bucket = 0usize;
    while bucket < 3 && model.decode(dec, base + bucket) {
        bucket += 1;
    }
    if bucket < 3 {
        return bucket as u32;
    }
    // Exp-Golomb remainder. A corrupt stream can present an absurdly
    // long prefix; saturate instead of panicking — downstream range
    // checks reject the value.
    let mut nbits = 1u32;
    while model.decode(dec, base + 3) {
        nbits += 1;
        if nbits >= 31 {
            return u32::MAX;
        }
    }
    let suffix = dec.get_bits(nbits - 1);
    let rem = ((1u32 << (nbits - 1)) | suffix) - 1;
    rem.saturating_add(3)
}

/// Writes a signed integer: magnitude via [`write_uint`], then a raw
/// sign bit for nonzero values.
pub fn write_int(enc: &mut BoolEncoder, model: &mut AdaptiveModel, base: usize, v: i32) {
    write_uint(enc, model, base, v.unsigned_abs());
    if v != 0 {
        enc.put_raw(v < 0);
    }
}

/// Reads an integer written by [`write_int`].
pub fn read_int(dec: &mut BoolDecoder<'_>, model: &mut AdaptiveModel, base: usize) -> i32 {
    let mag = read_uint(dec, model, base);
    if mag == 0 {
        0
    } else if dec.get_raw() {
        -(mag as i32)
    } else {
        mag as i32
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
            enc.put_raw(b);
        }
        enc.put_bits(0xABCD, 16);
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(&bytes);
        for &b in &pattern {
            assert_eq!(dec.get_raw(), b);
        }
        assert_eq!(dec.get_bits(16), 0xABCD);
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
            assert_eq!(m_dec.decode(&mut dec, ctx), b);
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
            enc_flat.put_raw(b);
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
            write_uint(&mut enc, &mut me, 0, v);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(&bytes);
        let mut md = AdaptiveModel::new(8);
        for &v in &values {
            assert_eq!(read_uint(&mut dec, &mut md, 0), v);
        }
    }

    #[test]
    fn int_round_trip() {
        let values = [0i32, 1, -1, 5, -5, 127, -128, 4000, -4000];
        let mut enc = BoolEncoder::new();
        let mut me = AdaptiveModel::new(8);
        for &v in &values {
            write_int(&mut enc, &mut me, 0, v);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(&bytes);
        let mut md = AdaptiveModel::new(8);
        for &v in &values {
            assert_eq!(read_int(&mut dec, &mut md, 0), v);
        }
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
        let _ = dec.get_raw();
        let _ = dec.get_bits(16);
    }
}
