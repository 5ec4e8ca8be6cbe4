//! Whole-frame encoding and decoding.
//!
//! The frame syntax is written once: [`encode_frame`] and
//! [`decode_frame`] drive one generic `FrameCoder` walk, which codes
//! every symbol through a [`BoolCoder`] (the encoder's writes, the
//! decoder's reads) and asks its side's `Decisions` for the values to
//! write (the encoder's choices; the decoder's placeholders, and zero
//! levels for its payload to fill).
//! What follows each symbol is one path, `Recon`: prediction, tile
//! reconstruction and the frame tail (deblocking, then metering). So
//! the encoder's reconstruction (the next frame's reference) equals the
//! decoder's output bit-for-bit — the determinism the paper's
//! golden-transcode fault screening depends on (§4.4).

use crate::block::{code_tile, for_each_tile, quantize_tile, TileScratch};
use crate::config::EncoderConfig;
use crate::deblock::deblock_plane;
use crate::entropy::{BoolCoder, BoolDecoder, BoolEncoder};
use crate::intra::{IntraMode, IntraNeighbors};
use crate::kernels;
use crate::models::{tx_class, Models};
use crate::motion::{mc_block, search_scratch, MotionScratch, SearchParams, SearchResult};
use crate::stats::CodingStats;
use crate::types::{CodecError, FrameKind, MotionVector, Profile, Qp};
use std::collections::HashMap;
use std::rc::Rc;
use vcu_media::{Frame, Plane};

/// Reference-slot file: LAST / GOLDEN / ALTREF.
///
/// Slots share frames: a keyframe refresh points all three at one
/// reconstruction, so the encoder can tell an aliased slot from its
/// address and replay the search it already ran on the lower slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct RefSlots {
    slots: [Option<Rc<Frame>>; 3],
}

impl RefSlots {
    /// Empty slot file.
    pub(crate) fn new() -> Self {
        RefSlots::default()
    }

    /// References available to `profile`, in slot order. The H.264-like
    /// profile sees at most one (LAST).
    pub(crate) fn available(&self, profile: Profile) -> Vec<&Frame> {
        self.slots
            .iter()
            .take(profile.max_references())
            .filter_map(|s| s.as_deref())
            .collect()
    }

    /// Applies the refresh rule for a coded frame of `kind`, copying
    /// `recon` once however many slots it refreshes.
    pub(crate) fn apply_refresh(&mut self, kind: FrameKind, recon: &Frame) {
        let recon = Some(Rc::new(recon.clone()));
        match kind {
            FrameKind::Key => self.slots = [recon.clone(), recon.clone(), recon],
            FrameKind::Inter => self.slots[0] = recon,
            FrameKind::AltRef => self.slots[2] = recon,
        }
    }
}

/// Deblocking grid per profile (the transform granularity).
fn deblock_grid(profile: Profile) -> usize {
    match profile {
        Profile::H264Sim => 8,
        Profile::Vp9Sim => 16,
    }
}

/// Maximum transform size per profile.
fn max_tx(profile: Profile) -> usize {
    match profile {
        Profile::H264Sim => 8,
        Profile::Vp9Sim => 32,
    }
}

/// Chroma transform size for luma leaf `a`: half the leaf's
/// power-of-two size within the profile's maximum, at least 4.
fn chroma_tx(profile: Profile, a: Area) -> usize {
    (a.w.min(a.h).next_power_of_two().min(max_tx(profile)) / 2).max(4)
}

/// Intra modes per profile.
fn intra_modes(profile: Profile) -> &'static [IntraMode] {
    match profile {
        Profile::H264Sim => &IntraMode::H264_MODES,
        Profile::Vp9Sim => &IntraMode::VP9_MODES,
    }
}

/// Plane `p` of `f`: 0 = Y, 1 = U, 2 = V.
fn plane(f: &Frame, p: usize) -> &Plane {
    match p {
        0 => f.y(),
        1 => f.u(),
        _ => f.v(),
    }
}

/// Top-left corners of the `sb`-sized superblocks covering a `w x h`
/// frame, in raster order.
fn superblocks(w: usize, h: usize, sb: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..h)
        .step_by(sb)
        .flat_map(move |y| (0..w).step_by(sb).map(move |x| (x, y)))
}

/// A block's position and size within one plane.
#[derive(Debug, Clone, Copy)]
struct Area {
    x: usize,
    y: usize,
    w: usize,
    h: usize,
}

impl Area {
    /// The co-located block of a 4:2:0 chroma plane.
    fn chroma(self) -> Area {
        Area {
            x: self.x / 2,
            y: self.y / 2,
            w: self.w.div_ceil(2),
            h: self.h.div_ceil(2),
        }
    }
}

/// Decides whether a residual block prefers the half-size transform:
/// when residual energy is concentrated in a few sub-tiles (sharp
/// edges, sprite boundaries), the big transform smears it across many
/// coefficients; a heterogeneity test catches exactly that case.
fn tx_split_heuristic(residual: &[i16], bw: usize, bh: usize, t: usize, qp: Qp) -> bool {
    let half = t / 2;
    let mut max_mad = 0.0f64;
    let mut sum_mad = 0.0f64;
    let mut n_tiles = 0u32;
    let mut ty = 0;
    while ty < bh {
        let th = half.min(bh - ty);
        let mut tx = 0;
        while tx < bw {
            let tw = half.min(bw - tx);
            let mut acc = 0u64;
            for r in 0..th {
                for c in 0..tw {
                    acc += residual[(ty + r) * bw + tx + c].unsigned_abs() as u64;
                }
            }
            let mad = acc as f64 / (tw * th) as f64;
            max_mad = max_mad.max(mad);
            sum_mad += mad;
            n_tiles += 1;
            tx += half;
        }
        ty += half;
    }
    if n_tiles < 2 {
        return false;
    }
    let mean_mad = sum_mad / n_tiles as f64;
    // Heterogeneous residual that actually matters at this QP.
    max_mad > 2.5 * (mean_mad + 0.5) && max_mad > qp.step() * 0.25
}

/// Estimated syntax bits for coding `mv` against `pred` (RDO pricing).
fn mv_bits_estimate(mv: MotionVector, pred: MotionVector) -> f64 {
    let dx = (mv.x - pred.x).unsigned_abs() as f64;
    let dy = (mv.y - pred.y).unsigned_abs() as f64;
    4.0 + 2.0 * ((dx + 1.0).log2() + (dy + 1.0).log2())
}

/// Codes `mv` as its difference from `base` in context `ctx`. A corrupt
/// stream's vector saturates to the `i16` range.
fn code_mv(
    c: &mut impl BoolCoder,
    m: &mut Models,
    ctx: usize,
    mv: MotionVector,
    base: MotionVector,
) -> MotionVector {
    let dx = m.mv_x.code_int(c, ctx, mv.x as i32 - base.x as i32);
    let dy = m.mv_y.code_int(c, ctx, mv.y as i32 - base.y as i32);
    let add = |b: i16, d: i32| (b as i64 + d as i64).clamp(i16::MIN as i64, i16::MAX as i64) as i16;
    MotionVector::new(add(base.x, dx), add(base.y, dy))
}

/// Frame-level scratch arena for the encoder's decisions: every
/// per-block buffer the mode search and residual need, allocated once
/// and grown to the largest block seen. With `Recon`'s buffers this
/// removes all heap allocation from the superblock walk.
#[derive(Debug, Default)]
struct EncScratch {
    /// Current-block pixels (split / mode decisions, then residuals).
    cur_blk: Vec<u8>,
    /// Mode-decision prediction candidates.
    mode_pred: Vec<u8>,
    mode_p1: Vec<u8>,
    mode_p2: Vec<u8>,
    /// Spatial residual of the block.
    residual: Vec<i16>,
    /// Motion-search buffers.
    motion: MotionScratch,
}

/// Key identifying one motion search: block geometry, predictor seed
/// and search parameters. Only reference slot 0 is cached (the slot
/// both `should_split` and the leaf mode decision query), so the slot
/// index is not part of the key.
type SearchKey = (usize, usize, usize, usize, i16, i16, SearchParams);

/// Multiply-xor hasher for the search memo. The memo is keyed by small
/// integer tuples, looked up and inserted but never iterated, so hash
/// quality only affects bucket distribution — never output bytes — and
/// SipHash's keyed-DoS resistance buys nothing here while costing ~5%
/// of the whole encode in the default hasher.
#[derive(Default)]
struct SearchKeyHasher {
    hash: u64,
}

impl std::hash::Hasher for SearchKeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.write_u64(v as u16 as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type SearchKeyHash = std::hash::BuildHasherDefault<SearchKeyHasher>;

/// A leaf-block coding decision.
#[derive(Debug, Clone, Copy)]
enum BlockMode {
    Intra(IntraMode),
    Inter {
        ref_idx: usize,
        mv: MotionVector,
        compound: Option<(usize, MotionVector)>,
    },
}

/// The reconstruction both sides share: the frame being rebuilt, the
/// state its syntax adapts, and everything a leaf does once its mode is
/// known. The one `FrameCoder` walk drives it for either side, so the
/// decoder cannot drift from the encoder's reference.
struct Recon<'a> {
    profile: Profile,
    qp: Qp,
    /// References visible to this frame (none for a keyframe).
    refs: Vec<&'a Frame>,
    /// The frame being rebuilt.
    frame: Frame,
    models: Models,
    /// Predictor for the next coded motion vector.
    last_mv: MotionVector,
    stats: &'a mut CodingStats,
    /// Prediction for the block being coded.
    pred: Vec<u8>,
    /// Second prediction for compound averaging.
    pred2: Vec<u8>,
    /// Reconstructed block pixels before write-back.
    blk: Vec<u8>,
    /// Tile transform/quantize/entropy buffers.
    tile: TileScratch,
}

impl<'a> Recon<'a> {
    fn new(
        profile: Profile,
        kind: FrameKind,
        qp: Qp,
        refs: &'a RefSlots,
        (width, height): (usize, usize),
        stats: &'a mut CodingStats,
    ) -> Self {
        Recon {
            profile,
            qp,
            refs: if kind == FrameKind::Key {
                Vec::new()
            } else {
                refs.available(profile)
            },
            frame: Frame::new(width, height),
            models: Models::new(),
            last_mv: MotionVector::ZERO,
            stats,
            pred: Vec::new(),
            pred2: Vec::new(),
            blk: Vec::new(),
            tile: TileScratch::default(),
        }
    }

    /// Codes a leaf's mode: the is-inter flag when the frame has
    /// references, then the intra mode, or the reference, its vector
    /// against `last_mv`, and — where compound prediction is allowed —
    /// the compound flag with the second reference and its vector
    /// against the first. The encoder passes the mode it chose and gets
    /// it back; the decoder passes any mode and gets the one it read.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::CorruptBitstream`] for an intra mode or a
    /// reference index out of range.
    fn code_mode(
        &mut self,
        c: &mut impl BoolCoder,
        mode: BlockMode,
    ) -> Result<BlockMode, CodecError> {
        let (m, refs) = (&mut self.models, self.refs.len());
        let compound = self.profile.supports_compound() && refs >= 2;
        let (intra, ref_idx, mv, pair) = match mode {
            BlockMode::Intra(im) => (Some(im), 0, MotionVector::ZERO, None),
            BlockMode::Inter {
                ref_idx,
                mv,
                compound,
            } => (None, ref_idx, mv, compound),
        };
        if refs == 0 || !m.is_inter.code(c, 0, intra.is_none()) {
            let idx = m
                .intra_mode
                .code_uint(c, 0, intra.map_or(0, IntraMode::index) as u32);
            return IntraMode::from_index(idx as usize)
                .map(BlockMode::Intra)
                .ok_or(CodecError::CorruptBitstream("intra mode out of range"));
        }
        let ref_idx = m.ref_idx.code_uint(c, 0, ref_idx as u32) as usize;
        if ref_idx >= refs {
            return Err(CodecError::CorruptBitstream("reference index out of range"));
        }
        let mv = code_mv(c, m, 0, mv, self.last_mv);
        let compound = if compound && m.compound.code(c, 0, pair.is_some()) {
            let (r2, mv2) = pair.unwrap_or((0, MotionVector::ZERO));
            let r2 = m.ref_idx.code_uint(c, 4, r2 as u32) as usize;
            if r2 >= refs {
                return Err(CodecError::CorruptBitstream("compound ref out of range"));
            }
            Some((r2, code_mv(c, m, 4, mv2, mv)))
        } else {
            None
        };
        Ok(BlockMode::Inter {
            ref_idx,
            mv,
            compound,
        })
    }

    /// Predicts block `a` of plane `p` (0 = Y, 1 = U, 2 = V; chroma
    /// geometry already halved) into `self.pred`, and meters it. Luma
    /// bills the block as intra (`intra_blocks`, `intra_pixels`) or
    /// inter (`inter_blocks`, one `mc_pixels` per reference fetch);
    /// chroma bills one fetch per block, compound or not.
    fn predict(&mut self, p: usize, mode: &BlockMode, a: Area) {
        let n = a.w * a.h;
        self.pred.clear();
        self.pred.resize(n, 0);
        match *mode {
            BlockMode::Intra(m) => {
                if p == 0 {
                    self.stats.intra_blocks += 1;
                    self.stats.intra_pixels += n as u64;
                }
                IntraNeighbors::gather(plane(&self.frame, p), a.x, a.y, a.w, a.h)
                    .predict(m, &mut self.pred);
            }
            BlockMode::Inter {
                ref_idx,
                mv,
                compound,
            } => {
                // Chroma moves by the luma vector halved, truncating.
                let scale = |mv: MotionVector| match p {
                    0 => mv,
                    _ => MotionVector::new(mv.x / 2, mv.y / 2),
                };
                let Area { x, y, w, h } = a;
                let src = plane(self.refs[ref_idx], p);
                mc_block(src, x, y, scale(mv), w, h, &mut self.pred);
                let mut fetches = 1;
                if let Some((r2, mv2)) = compound {
                    self.pred2.clear();
                    self.pred2.resize(n, 0);
                    let src2 = plane(self.refs[r2], p);
                    mc_block(src2, x, y, scale(mv2), w, h, &mut self.pred2);
                    kernels::avg_u8_inplace(&mut self.pred, &self.pred2);
                    fetches = 2;
                }
                if p == 0 {
                    self.stats.inter_blocks += 1;
                    self.stats.mc_pixels += fetches * n as u64;
                    self.last_mv = mv;
                } else {
                    self.stats.mc_pixels += n as u64;
                }
            }
        }
    }

    /// The frame tail: in-loop deblocking, then frame metering. Returns
    /// the reconstruction that becomes reference state.
    fn finish(self) -> Frame {
        let mut frame = self.frame;
        self.stats.deblock_pixels +=
            deblock_plane(frame.y_mut(), deblock_grid(self.profile), self.qp);
        self.stats.pixels += (frame.width() * frame.height()) as u64;
        self.stats.frames += 1;
        frame
    }
}

/// What the encoder decides and the decoder reads: the walk asks a
/// side for each value before coding it. The defaults decide nothing —
/// they are the decoder's side: placeholders its coder ignores, and
/// zero levels its payload fills in.
trait Decisions {
    /// Whether the `size` block at `(x, y)` splits into quadrants.
    fn split(&mut self, _rc: &mut Recon<'_>, _x: usize, _y: usize, _size: usize) -> bool {
        false
    }
    /// The prediction mode of leaf `a`.
    fn mode(&mut self, _rc: &mut Recon<'_>, _a: Area) -> BlockMode {
        BlockMode::Intra(IntraMode::Dc)
    }
    /// Block `a` of plane `p` is predicted into `rc.pred`.
    fn predicted(&mut self, _rc: &Recon<'_>, _p: usize, _a: Area) {}
    /// Whether leaf `a`'s luma residual uses `t/2` transforms, not `t`.
    fn tx_split(&self, _a: Area, _t: usize, _qp: Qp) -> bool {
        false
    }
    /// Leaves the quantized levels of tile `s` (`t x t` transform) of a
    /// `stride`-wide block of plane `p` in `ts`.
    #[allow(clippy::too_many_arguments)]
    fn quantize(
        &mut self,
        _p: usize,
        _stride: usize,
        _s: Area,
        t: usize,
        _qp: Qp,
        _stats: &mut CodingStats,
        ts: &mut TileScratch,
    ) {
        ts.zero_levels(t);
    }
}

/// The frame syntax, walked once for either side: coder `C` writes or
/// reads every symbol, side `D` supplies the values to write, and both
/// rebuild the frame through the one `Recon`.
struct FrameCoder<'a, C, D> {
    coder: C,
    side: D,
    rc: Recon<'a>,
}

impl<C: BoolCoder, D: Decisions> FrameCoder<'_, C, D> {
    /// Codes the `size` block at `(x, y)`: a partition flag above 16
    /// pixels, then four quadrants or one leaf.
    fn code_block(
        &mut self,
        x: usize,
        y: usize,
        size: usize,
        depth: usize,
    ) -> Result<(), CodecError> {
        let (w, h) = (self.rc.frame.width(), self.rc.frame.height());
        if x >= w || y >= h {
            return Ok(());
        }
        if size > 16 {
            let want = self.side.split(&mut self.rc, x, y, size);
            let partition = &mut self.rc.models.partition;
            if partition.code(&mut self.coder, depth.min(1), want) {
                let half = size / 2;
                for (qx, qy) in [(x, y), (x + half, y), (x, y + half), (x + half, y + half)] {
                    self.code_block(qx, qy, half, depth + 1)?;
                }
                return Ok(());
            }
        }
        self.code_leaf(x, y, size)
    }

    /// Codes a leaf: its mode, then luma with the adaptive transform-size
    /// flag, then both chroma planes.
    fn code_leaf(&mut self, x: usize, y: usize, size: usize) -> Result<(), CodecError> {
        let (w, h) = (self.rc.frame.width(), self.rc.frame.height());
        let a = Area {
            x,
            y,
            w: size.min(w - x),
            h: size.min(h - y),
        };
        let chosen = self.side.mode(&mut self.rc, a);
        let mode = self.rc.code_mode(&mut self.coder, chosen)?;

        // Luma residual with adaptive transform size: sharp, spatially
        // concentrated residuals prefer the smaller transform (VP9's
        // adaptive TX size; H.264 High's 8x8/4x4 choice).
        self.rc.predict(0, &mode, a);
        self.side.predicted(&self.rc, 0, a);
        let t_full = size.min(max_tx(self.rc.profile));
        let split = t_full > 4 && {
            let want = self.side.tx_split(a, t_full, self.rc.qp);
            let tx_split = &mut self.rc.models.tx_split;
            tx_split.code(&mut self.coder, tx_class(t_full), want)
        };
        let t = if split { t_full / 2 } else { t_full };
        self.code_residual(0, a, t);

        // Chroma planes.
        let (ca, ct) = (a.chroma(), chroma_tx(self.rc.profile, a));
        for p in 1..3 {
            self.rc.predict(p, &mode, ca);
            self.side.predicted(&self.rc, p, ca);
            self.code_residual(p, ca, ct);
        }
        Ok(())
    }

    /// Codes block `a` of plane `p` as `t x t` residual tiles and writes
    /// prediction plus residual back into the frame.
    fn code_residual(&mut self, p: usize, a: Area, t: usize) {
        let FrameCoder { coder, side, rc } = self;
        // Chroma is quantized slightly coarser.
        let qp = if p == 0 { rc.qp } else { rc.qp.offset(2) };
        let Recon {
            frame,
            models,
            stats,
            pred,
            blk,
            tile,
            ..
        } = rc;
        blk.clear();
        blk.resize(a.w * a.h, 0);
        for_each_tile(a.w, a.h, t, |x, y, w, h| {
            side.quantize(p, a.w, Area { x, y, w, h }, t, qp, stats, tile);
            code_tile(coder, models, w, h, t, qp, stats, tile);
            for r in 0..h {
                let row = (y + r) * a.w + x;
                kernels::add_residual_clamp(
                    &pred[row..row + w],
                    &tile.recon[r * w..(r + 1) * w],
                    &mut blk[row..row + w],
                );
            }
        });
        let out = match p {
            0 => frame.y_mut(),
            1 => frame.u_mut(),
            _ => frame.v_mut(),
        };
        out.write_block(a.x, a.y, a.w, a.h, blk);
    }
}

/// Encodes one frame. Returns the arithmetic payload and the
/// reconstruction (post-deblock) that becomes reference state.
pub(crate) fn encode_frame(
    cfg: &EncoderConfig,
    cur: &Frame,
    kind: FrameKind,
    qp: Qp,
    refs: &RefSlots,
    stats: &mut CodingStats,
) -> (Vec<u8>, Frame) {
    let (w, h) = (cur.width(), cur.height());
    let mut fc = FrameCoder {
        coder: BoolEncoder::new(),
        side: Encoder {
            cfg,
            cur,
            search: cfg.toolset.search_params(),
            scratch: EncScratch::default(),
            search_cache: HashMap::with_capacity_and_hasher(1024, SearchKeyHash::default()),
        },
        rc: Recon::new(cfg.profile, kind, qp, refs, (w, h), stats),
    };
    let sb = cfg.profile.superblock_size();
    for (x, y) in superblocks(w, h, sb) {
        fc.code_block(x, y, sb, 0)
            .expect("the encoder codes only in-range symbols");
    }
    let payload = fc.coder.finish();
    fc.rc.stats.bits += payload.len() as u64 * 8;
    (payload, fc.rc.finish())
}

/// The encoder's side of the walk: every decision, made on the source
/// frame before the syntax codes it.
struct Encoder<'a> {
    cfg: &'a EncoderConfig,
    cur: &'a Frame,
    search: SearchParams,
    scratch: EncScratch,
    /// Per-frame motion-search memo for reference slot 0. The split
    /// heuristic and the leaf mode decision run the identical search;
    /// the cache stores the result *and* the exact `CodingStats` delta
    /// the live search charged, replaying it on a hit (see [`replay`])
    /// so the device charge, and thus the chip timing model, is
    /// byte-identical to searching twice.
    search_cache: HashMap<SearchKey, (SearchResult, CodingStats), SearchKeyHash>,
}

/// Charges a search that is replayed rather than run: every field of
/// its recorded `delta` except `sad_pixels_examined`, because a replay
/// touches no pixels. The device charge then matches a second search
/// exactly, and `sad_pixels_examined` stays the host's real work.
fn replay(stats: &mut CodingStats, delta: CodingStats) {
    *stats += CodingStats {
        sad_pixels_examined: 0,
        ..delta
    };
}

impl Decisions for Encoder<'_> {
    /// Bounded recursive partition heuristic (paper §3.2): split when
    /// the whole-block match is poor relative to the quantizer scale.
    fn split(&mut self, rc: &mut Recon<'_>, x: usize, y: usize, size: usize) -> bool {
        let (w, h) = (self.cur.width(), self.cur.height());
        let bw = size.min(w - x);
        let bh = size.min(h - y);
        // Blocks straddling the frame edge always split for tighter fit.
        if bw < size || bh < size {
            return true;
        }
        if rc.refs.is_empty() {
            // Intra frame: split when spatial variance is high.
            self.load_cur(0, Area { x, y, w: bw, h: bh });
            let blk = &self.scratch.cur_blk;
            let mean = blk.iter().map(|&v| v as u64).sum::<u64>() / blk.len() as u64;
            let mad: u64 = blk
                .iter()
                .map(|&v| (v as i64 - mean as i64).unsigned_abs())
                .sum();
            return mad as f64 / (bw * bh) as f64 > rc.qp.step() * 0.75;
        }
        // Inter: the paper's "bounded recursive search" — compare the
        // whole-block motion-compensated SAD against the sum of the
        // four sub-blocks' independent searches plus the syntax
        // overhead of coding three extra modes/MVs. Multi-motion
        // content (several sprites in one superblock) splits; uniform
        // pans keep large blocks. Both the whole-block and quadrant
        // searches go through the memo: the quadrant results are what
        // the next partition level (and ultimately the leaf mode
        // decision) re-requests.
        let bounded = SearchParams::hardware();
        let whole = self.cached_search(rc, 0, x, y, bw, bh, &bounded).0.sad;
        let half = size / 2;
        let mut subs = 0u64;
        for (qx, qy) in [(x, y), (x + half, y), (x, y + half), (x + half, y + half)] {
            if qx >= w || qy >= h {
                continue;
            }
            let sbw = half.min(w - qx);
            let sbh = half.min(h - qy);
            subs += self.cached_search(rc, 0, qx, qy, sbw, sbh, &bounded).0.sad;
        }
        let lambda_sad = 0.9 * rc.qp.step() * self.cfg.toolset.lambda_scale();
        let split_overhead_bits = 36.0; // three extra mode/MV sets
        (subs as f64 + lambda_sad * split_overhead_bits) < whole as f64
    }

    fn mode(&mut self, rc: &mut Recon<'_>, a: Area) -> BlockMode {
        // `cur_blk` crosses a `&mut self` call, so it is taken out of
        // the arena and restored (no allocation either way). It stays
        // loaded for the luma residual.
        self.load_cur(0, a);
        let cur_blk = std::mem::take(&mut self.scratch.cur_blk);
        let mode = self.choose_mode(rc, a, &cur_blk);
        self.scratch.cur_blk = cur_blk;
        mode
    }

    /// `scratch.residual = cur - pred` for the block just predicted.
    fn predicted(&mut self, rc: &Recon<'_>, p: usize, a: Area) {
        // Luma is still loaded from the mode decision.
        if p > 0 {
            self.load_cur(p, a);
        }
        let EncScratch {
            cur_blk, residual, ..
        } = &mut self.scratch;
        residual.clear();
        residual.resize(cur_blk.len(), 0);
        kernels::compute_residual(cur_blk, &rc.pred, residual);
    }

    fn tx_split(&self, a: Area, t: usize, qp: Qp) -> bool {
        tx_split_heuristic(&self.scratch.residual, a.w, a.h, t, qp)
    }

    fn quantize(
        &mut self,
        p: usize,
        stride: usize,
        s: Area,
        t: usize,
        qp: Qp,
        stats: &mut CodingStats,
        ts: &mut TileScratch,
    ) {
        // The trellis runs on luma only.
        let trellis = p == 0 && self.cfg.toolset.trellis();
        let deadzone = self.cfg.toolset.deadzone();
        let residual = &self.scratch.residual[s.y * stride + s.x..];
        quantize_tile(
            residual, stride, s.w, s.h, t, qp, deadzone, trellis, stats, ts,
        );
    }
}

impl Encoder<'_> {
    /// Motion search through the per-frame memo, returning the result
    /// and the stats delta the search charged. Cache hits replay the
    /// recorded delta; misses run the real search and record it. Only
    /// reference slot 0 participates — other slots always search.
    #[allow(clippy::too_many_arguments)]
    fn cached_search(
        &mut self,
        rc: &mut Recon<'_>,
        ref_idx: usize,
        x: usize,
        y: usize,
        bw: usize,
        bh: usize,
        params: &SearchParams,
    ) -> (SearchResult, CodingStats) {
        let key = (x, y, bw, bh, rc.last_mv.x, rc.last_mv.y, *params);
        if ref_idx == 0 {
            if let Some(&(r, delta)) = self.search_cache.get(&key) {
                replay(rc.stats, delta);
                return (r, delta);
            }
        }
        let before = *rc.stats;
        let r = search_scratch(
            rc.refs[ref_idx].y(),
            self.cur.y(),
            x,
            y,
            bw,
            bh,
            rc.last_mv,
            params,
            rc.stats,
            &mut self.scratch.motion,
        );
        let delta = *rc.stats - before;
        if ref_idx == 0 {
            self.search_cache.insert(key, (r, delta));
        }
        (r, delta)
    }

    /// Copies block `a` of source plane `p` into `scratch.cur_blk`.
    fn load_cur(&mut self, p: usize, a: Area) {
        let blk = &mut self.scratch.cur_blk;
        blk.clear();
        blk.resize(a.w * a.h, 0);
        plane(self.cur, p).copy_block_clamped(a.x as isize, a.y as isize, a.w, a.h, blk);
    }

    /// Chooses leaf `a`'s mode: the cheapest of the intra modes, the
    /// best single reference and, where allowed, the compound pair.
    fn choose_mode(&mut self, rc: &mut Recon<'_>, a: Area, cur_blk: &[u8]) -> BlockMode {
        let Area { x, y, w: bw, h: bh } = a;
        let lambda_sad = 0.9 * rc.qp.step() * self.cfg.toolset.lambda_scale();
        let use_satd = self.cfg.toolset.satd_ranking();
        let metric = |cur: &[u8], pred: &[u8], stats: &mut CodingStats| -> u64 {
            if use_satd {
                stats.sad_pixels += 2 * (bw * bh) as u64; // SATD ~2x SAD cost
                kernels::satd(cur, pred, bw, bh)
            } else {
                kernels::sad_slice(pred, cur)
            }
        };

        // Intra candidates.
        let mut best_intra: Option<(IntraMode, u64)> = None;
        let neighbors = IntraNeighbors::gather(rc.frame.y(), x, y, bw, bh);
        let mut pred_buf = std::mem::take(&mut self.scratch.mode_pred);
        pred_buf.clear();
        pred_buf.resize(bw * bh, 0);
        for &m in intra_modes(self.cfg.profile) {
            neighbors.predict(m, &mut pred_buf);
            rc.stats.intra_pixels += (bw * bh) as u64;
            let sad: u64 = metric(cur_blk, &pred_buf, rc.stats);
            if best_intra.is_none_or(|(_, s)| sad < s) {
                best_intra = Some((m, sad));
            }
        }
        self.scratch.mode_pred = pred_buf;
        let (intra_mode, intra_sad) = best_intra.expect("at least one intra mode");
        let intra_cost = intra_sad as f64 + lambda_sad * 4.0;

        if rc.refs.is_empty() {
            return BlockMode::Intra(intra_mode);
        }

        // Inter candidates: one search per reference (slot 0 through
        // the memo, where the split heuristic usually primed it). A slot
        // holding the same frame as a lower slot would repeat that
        // slot's search exactly — same pixels, predictor and window — so
        // its result and charge are replayed instead.
        let sp = self.search;
        let mut per_ref = Vec::with_capacity(rc.refs.len());
        let mut deltas = [CodingStats::new(); 3];
        for ri in 0..rc.refs.len() {
            let refs = &rc.refs;
            let (r, delta) = match (0..ri).find(|&j| std::ptr::eq(refs[j], refs[ri])) {
                Some(j) => {
                    replay(rc.stats, deltas[j]);
                    (per_ref[j], deltas[j])
                }
                None => self.cached_search(rc, ri, x, y, bw, bh, &sp),
            };
            per_ref.push(r);
            deltas[ri] = delta;
        }
        let (best_ri, best_r) = per_ref
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.sad)
            .map(|(i, r)| (i, *r))
            .expect("non-empty refs");
        let inter_metric = if use_satd {
            let mut p = std::mem::take(&mut self.scratch.mode_p1);
            p.clear();
            p.resize(bw * bh, 0);
            mc_block(rc.refs[best_ri].y(), x, y, best_r.mv, bw, bh, &mut p);
            let m = metric(cur_blk, &p, rc.stats);
            self.scratch.mode_p1 = p;
            m
        } else {
            best_r.sad
        };
        let inter_cost =
            inter_metric as f64 + lambda_sad * (2.0 + mv_bits_estimate(best_r.mv, rc.last_mv));

        // Compound: average the two best references.
        let mut compound_choice: Option<((usize, MotionVector), f64)> = None;
        if self.cfg.profile.supports_compound() && rc.refs.len() >= 2 {
            let mut order: Vec<usize> = (0..per_ref.len()).collect();
            order.sort_by_key(|&i| per_ref[i].sad);
            let (r1, r2) = (order[0], order[1]);
            if r1 != r2 {
                let mut p1 = std::mem::take(&mut self.scratch.mode_p1);
                let mut p2 = std::mem::take(&mut self.scratch.mode_p2);
                p1.clear();
                p1.resize(bw * bh, 0);
                p2.clear();
                p2.resize(bw * bh, 0);
                mc_block(rc.refs[r1].y(), x, y, per_ref[r1].mv, bw, bh, &mut p1);
                mc_block(rc.refs[r2].y(), x, y, per_ref[r2].mv, bw, bh, &mut p2);
                rc.stats.mc_pixels += 2 * (bw * bh) as u64;
                kernels::avg_u8_inplace(&mut p1, &p2);
                let sad: u64 = metric(cur_blk, &p1, rc.stats);
                self.scratch.mode_p1 = p1;
                self.scratch.mode_p2 = p2;
                let cost = sad as f64
                    + lambda_sad
                        * (3.0
                            + mv_bits_estimate(per_ref[r1].mv, rc.last_mv)
                            + mv_bits_estimate(per_ref[r2].mv, per_ref[r1].mv));
                if best_ri == r1 && cost < inter_cost {
                    compound_choice = Some(((r2, per_ref[r2].mv), cost));
                }
            }
        }

        let best_inter_cost = compound_choice.map_or(inter_cost, |(_, c)| c.min(inter_cost));
        if best_inter_cost <= intra_cost {
            BlockMode::Inter {
                ref_idx: best_ri,
                mv: best_r.mv,
                compound: compound_choice
                    .filter(|(_, c)| *c < inter_cost)
                    .map(|(pair, _)| pair),
            }
        } else {
            BlockMode::Intra(intra_mode)
        }
    }
}

/// Decodes one frame payload into its reconstruction.
///
/// # Errors
///
/// Returns [`CodecError::CorruptBitstream`] if syntax elements are out
/// of range (truncated/corrupted payloads). A payload that runs out
/// stops decoding at the superblock where it ran out.
pub(crate) fn decode_frame(
    profile: Profile,
    payload: &[u8],
    kind: FrameKind,
    qp: Qp,
    refs: &RefSlots,
    (width, height): (usize, usize),
    stats: &mut CodingStats,
) -> Result<Frame, CodecError> {
    let mut fc = FrameCoder {
        coder: BoolDecoder::new(payload),
        side: Decoder,
        rc: Recon::new(profile, kind, qp, refs, (width, height), stats),
    };
    let sb = profile.superblock_size();
    for (x, y) in superblocks(width, height, sb) {
        fc.code_block(x, y, sb, 0)?;
        // Past its end a payload reads as zero bytes forever, so without
        // this check a truncated frame costs what its declared size
        // says, not what its input holds.
        if fc.coder.overrun() {
            return Err(CodecError::CorruptBitstream("payload truncated"));
        }
    }
    Ok(fc.rc.finish())
}

/// The decoder's side of the walk: it decides nothing, so every value
/// comes from the payload.
struct Decoder;

impl Decisions for Decoder {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncoderConfig;
    use vcu_media::synth::{ContentClass, SynthSpec};
    use vcu_media::{quality::psnr_y, Resolution};

    fn test_video(frames: usize) -> vcu_media::Video {
        SynthSpec::new(Resolution::R144, frames, ContentClass::ugc(), 11).generate()
    }

    fn calm_video(frames: usize) -> vcu_media::Video {
        SynthSpec::new(Resolution::R144, frames, ContentClass::talking_head(), 11).generate()
    }

    fn round_trip_one(profile: Profile, kind_chain: bool) {
        let video = test_video(3);
        let cfg = EncoderConfig::const_qp(profile, Qp::new(28));
        let mut refs = RefSlots::new();
        let mut stats = CodingStats::new();
        let mut dec_refs = RefSlots::new();
        let mut dstats = CodingStats::new();

        for (i, f) in video.frames.iter().enumerate() {
            let kind = if i == 0 || !kind_chain {
                FrameKind::Key
            } else {
                FrameKind::Inter
            };
            let (payload, recon) = encode_frame(&cfg, f, kind, Qp::new(28), &refs, &mut stats);
            let decoded = decode_frame(
                profile,
                &payload,
                kind,
                Qp::new(28),
                &dec_refs,
                (f.width(), f.height()),
                &mut dstats,
            )
            .expect("decode");
            assert_eq!(recon, decoded, "frame {i} recon mismatch");
            refs.apply_refresh(kind, &recon);
            dec_refs.apply_refresh(kind, &decoded);
        }
    }

    #[test]
    fn h264_round_trip_inter_chain() {
        round_trip_one(Profile::H264Sim, true);
    }

    #[test]
    fn vp9_round_trip_inter_chain() {
        round_trip_one(Profile::Vp9Sim, true);
    }

    #[test]
    fn intra_only_round_trip() {
        round_trip_one(Profile::Vp9Sim, false);
    }

    #[test]
    fn quality_improves_with_lower_qp() {
        let video = test_video(1);
        let f = &video.frames[0];
        let mut psnrs = Vec::new();
        for qp in [10u8, 30, 50] {
            let cfg = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(qp));
            let mut stats = CodingStats::new();
            let refs = RefSlots::new();
            let (_, recon) = encode_frame(&cfg, f, FrameKind::Key, Qp::new(qp), &refs, &mut stats);
            psnrs.push(psnr_y(f, &recon));
        }
        assert!(
            psnrs[0] > psnrs[1] && psnrs[1] > psnrs[2],
            "PSNR not monotone in QP: {psnrs:?}"
        );
    }

    #[test]
    fn rate_decreases_with_higher_qp() {
        let video = test_video(1);
        let f = &video.frames[0];
        let mut sizes = Vec::new();
        for qp in [10u8, 30, 50] {
            let cfg = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(qp));
            let mut stats = CodingStats::new();
            let refs = RefSlots::new();
            let (payload, _) =
                encode_frame(&cfg, f, FrameKind::Key, Qp::new(qp), &refs, &mut stats);
            sizes.push(payload.len());
        }
        assert!(
            sizes[0] > sizes[1] && sizes[1] > sizes[2],
            "sizes not monotone: {sizes:?}"
        );
    }

    #[test]
    fn inter_frames_much_smaller_than_key() {
        let video = calm_video(2);
        let cfg = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(28));
        let mut refs = RefSlots::new();
        let mut stats = CodingStats::new();
        let (key_payload, recon) = encode_frame(
            &cfg,
            &video.frames[0],
            FrameKind::Key,
            Qp::new(28),
            &refs,
            &mut stats,
        );
        refs.apply_refresh(FrameKind::Key, &recon);
        let (inter_payload, _) = encode_frame(
            &cfg,
            &video.frames[1],
            FrameKind::Inter,
            Qp::new(28),
            &refs,
            &mut stats,
        );
        assert!(
            (inter_payload.len() as f64) < key_payload.len() as f64 * 0.7,
            "inter {} vs key {}",
            inter_payload.len(),
            key_payload.len()
        );
        assert!(stats.inter_blocks > 0);
    }

    #[test]
    fn corrupt_payload_detected_or_decodes_differently() {
        let video = test_video(1);
        let f = &video.frames[0];
        let cfg = EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30));
        let refs = RefSlots::new();
        let mut stats = CodingStats::new();
        let (mut payload, recon) =
            encode_frame(&cfg, f, FrameKind::Key, Qp::new(30), &refs, &mut stats);
        // Flip a byte mid-payload.
        let mid = payload.len() / 2;
        payload[mid] ^= 0xA5;
        let mut dstats = CodingStats::new();
        match decode_frame(
            Profile::H264Sim,
            &payload,
            FrameKind::Key,
            Qp::new(30),
            &refs,
            (f.width(), f.height()),
            &mut dstats,
        ) {
            Err(_) => {}
            Ok(decoded) => assert_ne!(decoded, recon, "corruption must not decode identically"),
        }
    }

    #[test]
    fn truncated_payload_stops_at_the_superblock_that_runs_out() {
        // An empty payload is past its end before the first symbol; the
        // decode must stop after one superblock, not walk all 4,096.
        let mut stats = CodingStats::new();
        let r = decode_frame(
            Profile::Vp9Sim,
            &[],
            FrameKind::Key,
            Qp::new(30),
            &RefSlots::new(),
            (4096, 4096),
            &mut stats,
        );
        assert!(matches!(r, Err(CodecError::CorruptBitstream(_))));
        assert!(
            stats.transform_pixels <= 2 * 64 * 64,
            "decoded {} transform pixels past the end of the payload",
            stats.transform_pixels
        );
    }

    /// Slots that share one frame must code exactly like slots holding
    /// separate copies of it: the alias replay charges what a second
    /// search would, and only `sad_pixels_examined` falls.
    #[test]
    fn aliased_slots_code_like_separate_copies() {
        let video = SynthSpec::new(Resolution::R144, 3, ContentClass::gaming(), 5).generate();
        let cfg = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30));
        let mut shared = RefSlots::new();
        let mut separate = RefSlots::new();
        let mut examined = (0, 0);
        for (i, f) in video.frames.iter().enumerate() {
            let kind = if i == 0 {
                FrameKind::Key
            } else {
                FrameKind::Inter
            };
            let (mut a, mut b) = (CodingStats::new(), CodingStats::new());
            let (pa, ra) = encode_frame(&cfg, f, kind, Qp::new(30), &shared, &mut a);
            let (pb, rb) = encode_frame(&cfg, f, kind, Qp::new(30), &separate, &mut b);
            assert_eq!((&pa, &ra), (&pb, &rb), "frame {i}");
            let without_examined = |s: CodingStats| CodingStats {
                sad_pixels_examined: 0,
                ..s
            };
            assert_eq!(without_examined(a), without_examined(b), "frame {i}");
            examined = (
                examined.0 + a.sad_pixels_examined,
                examined.1 + b.sad_pixels_examined,
            );
            shared.apply_refresh(kind, &ra);
            // Refresh as a plain copy per slot would: no slot aliases.
            let slots = match kind {
                FrameKind::Key => 0..3,
                _ => 0..1,
            };
            for slot in slots {
                separate.slots[slot] = Some(Rc::new(rb.clone()));
            }
        }
        assert!(
            examined.0 < examined.1,
            "no search was replayed: {examined:?}"
        );
    }

    #[test]
    fn ref_slots_refresh_rules() {
        let f = Frame::new(16, 16);
        let mut slots = RefSlots::new();
        assert!(slots.available(Profile::Vp9Sim).is_empty());
        slots.apply_refresh(FrameKind::Key, &f);
        assert_eq!(slots.available(Profile::Vp9Sim).len(), 3);
        assert_eq!(slots.available(Profile::H264Sim).len(), 1);
        let mut g = Frame::new(16, 16);
        g.y_mut().fill(9);
        slots.apply_refresh(FrameKind::AltRef, &g);
        let avail = slots.available(Profile::Vp9Sim);
        assert_eq!(avail[2].y().get(0, 0), 9);
        assert_eq!(avail[0].y().get(0, 0), 0);
        // The keyframe's copy is shared by LAST and GOLDEN.
        assert!(std::ptr::eq(avail[0], avail[1]));
    }
}
