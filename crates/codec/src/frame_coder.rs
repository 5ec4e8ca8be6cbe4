//! Whole-frame encoding and decoding.
//!
//! [`encode_frame`] and [`decode_frame`] walk the identical superblock
//! syntax; the encoder makes mode decisions and writes symbols, the
//! decoder reads symbols. Everything that happens once a leaf's mode is
//! known is one path both sides call, `Recon`: prediction (intra,
//! inter and compound, with its metering), tile reconstruction, and the
//! frame tail (in-loop deblocking, then frame metering). Only the tile
//! coder differs — the encoder's closure calls `encode_tile`, the
//! decoder's calls `decode_tile` — so the encoder's reconstruction (used
//! as the next frame's reference) equals the decoder's output
//! bit-for-bit — the determinism the paper's golden-transcode fault
//! screening depends on (§4.4).

use crate::block::{decode_tile, encode_tile, for_each_tile, TileScratch};
use crate::config::EncoderConfig;
use crate::deblock::deblock_plane;
use crate::entropy::{read_int, read_uint, write_int, write_uint, BoolDecoder, BoolEncoder};
use crate::intra::{IntraMode, IntraNeighbors};
use crate::kernels;
use crate::models::{tx_class, Models};
use crate::motion::{mc_block, search_scratch, MotionScratch, SearchParams, SearchResult};
use crate::stats::CodingStats;
use crate::types::{CodecError, FrameKind, MotionVector, Profile, Qp};
use std::collections::HashMap;
use vcu_media::{Frame, Plane};

/// Reference-slot file: LAST / GOLDEN / ALTREF.
#[derive(Debug, Clone, Default)]
pub struct RefSlots {
    slots: [Option<Frame>; 3],
}

impl RefSlots {
    /// Empty slot file.
    pub fn new() -> Self {
        RefSlots::default()
    }

    /// References available to `profile`, in slot order. The H.264-like
    /// profile sees at most one (LAST).
    pub fn available(&self, profile: Profile) -> Vec<&Frame> {
        self.slots
            .iter()
            .take(profile.max_references())
            .filter_map(|s| s.as_ref())
            .collect()
    }

    /// Applies the refresh rule for a coded frame of `kind`.
    pub fn apply_refresh(&mut self, kind: FrameKind, recon: &Frame) {
        match kind {
            FrameKind::Key => {
                self.slots = [
                    Some(recon.clone()),
                    Some(recon.clone()),
                    Some(recon.clone()),
                ];
            }
            FrameKind::Inter => self.slots[0] = Some(recon.clone()),
            FrameKind::AltRef => self.slots[2] = Some(recon.clone()),
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

/// Writes `mv` as its difference from `base` in context `ctx`.
fn write_mv(
    enc: &mut BoolEncoder,
    m: &mut Models,
    ctx: usize,
    mv: MotionVector,
    base: MotionVector,
) {
    write_int(enc, &mut m.mv_x, ctx, (mv.x - base.x) as i32);
    write_int(enc, &mut m.mv_y, ctx, (mv.y - base.y) as i32);
}

/// Reads a motion vector coded as its difference from `base` in context
/// `ctx`, saturating to the `i16` range a corrupt stream can overflow.
fn read_mv(
    dec: &mut BoolDecoder<'_>,
    m: &mut Models,
    ctx: usize,
    base: MotionVector,
) -> MotionVector {
    let dx = read_int(dec, &mut m.mv_x, ctx);
    let dy = read_int(dec, &mut m.mv_y, ctx);
    let add = |b: i16, d: i32| (b as i32 + d).clamp(i16::MIN as i32, i16::MAX as i32) as i16;
    MotionVector::new(add(base.x, dx), add(base.y, dy))
}

/// Frame-level scratch arena for the encoder's decisions: every
/// per-block buffer the mode search and residual need, allocated once
/// and grown to the largest block seen. With `Recon`'s buffers this
/// removes all heap allocation from the superblock walk.
#[derive(Debug, Default)]
struct EncScratch {
    /// Current-block pixels (should_split / code_leaf / chroma).
    cur_blk: Vec<u8>,
    /// Mode-decision prediction candidates.
    mode_pred: Vec<u8>,
    mode_p1: Vec<u8>,
    mode_p2: Vec<u8>,
    /// Spatial residual of the block.
    residual: Vec<i16>,
    /// Residual gathered for one tile.
    tile_res: Vec<i16>,
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

#[derive(Default, Clone)]
struct SearchKeyHash;

impl std::hash::BuildHasher for SearchKeyHash {
    type Hasher = SearchKeyHasher;
    #[inline]
    fn build_hasher(&self) -> SearchKeyHasher {
        SearchKeyHasher::default()
    }
}

/// A leaf-block coding decision.
#[derive(Debug, Clone)]
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
/// known. The encoder and decoder each drive one through the same
/// calls, so the decoder cannot drift from the encoder's reference.
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

    /// Codes block `a` of plane `p` as `t x t` residual tiles and writes
    /// prediction plus residual back into the frame. `code_tile` codes
    /// one tile (its area relative to the block) at the plane's
    /// quantizer and leaves the tile's reconstructed residual in the
    /// scratch — the encoder's closure writes the tile, the decoder's
    /// reads it.
    fn reconstruct(
        &mut self,
        p: usize,
        a: Area,
        t: usize,
        mut code_tile: impl FnMut(&mut Models, &mut CodingStats, &mut TileScratch, Qp, Area),
    ) {
        // Chroma is quantized slightly coarser.
        let qp = if p == 0 { self.qp } else { self.qp.offset(2) };
        let Recon {
            models,
            stats,
            pred,
            blk,
            tile,
            ..
        } = self;
        blk.clear();
        blk.resize(a.w * a.h, 0);
        for_each_tile(a.w, a.h, t, |x, y, w, h| {
            code_tile(models, stats, tile, qp, Area { x, y, w, h });
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
            0 => self.frame.y_mut(),
            1 => self.frame.u_mut(),
            _ => self.frame.v_mut(),
        };
        out.write_block(a.x, a.y, a.w, a.h, &self.blk);
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

/// Encodes one frame. Returns the arithmetic payload and the
/// reconstruction (post-deblock) that becomes reference state.
pub fn encode_frame(
    cfg: &EncoderConfig,
    cur: &Frame,
    kind: FrameKind,
    qp: Qp,
    refs: &RefSlots,
    stats: &mut CodingStats,
) -> (Vec<u8>, Frame) {
    let (w, h) = (cur.width(), cur.height());
    let mut fe = FrameEnc {
        cfg,
        cur,
        enc: BoolEncoder::new(),
        search: cfg.toolset.search_params(),
        scratch: EncScratch::default(),
        search_cache: HashMap::with_capacity_and_hasher(1024, SearchKeyHash),
        rc: Recon::new(cfg.profile, kind, qp, refs, (w, h), stats),
    };
    let sb = cfg.profile.superblock_size();
    for (x, y) in superblocks(w, h, sb) {
        fe.code_block(x, y, sb, 0);
    }
    let payload = fe.enc.finish();
    fe.rc.stats.bits += payload.len() as u64 * 8;
    (payload, fe.rc.finish())
}

struct FrameEnc<'a> {
    cfg: &'a EncoderConfig,
    cur: &'a Frame,
    enc: BoolEncoder,
    search: SearchParams,
    scratch: EncScratch,
    /// Per-frame motion-search memo for reference slot 0. The split
    /// heuristic and the leaf mode decision run the identical search;
    /// the cache stores the result *and* the exact `CodingStats` delta
    /// the live search charged, replaying it on a hit so metering (and
    /// thus the chip timing model) is byte-identical to searching twice.
    search_cache: HashMap<SearchKey, (SearchResult, CodingStats), SearchKeyHash>,
    rc: Recon<'a>,
}

impl FrameEnc<'_> {
    /// Motion search through the per-frame memo. Cache hits replay the
    /// recorded stats delta; misses run the real search and record it.
    /// Only reference slot 0 participates — other slots always search.
    fn cached_search(
        &mut self,
        ref_idx: usize,
        x: usize,
        y: usize,
        bw: usize,
        bh: usize,
        params: &SearchParams,
    ) -> SearchResult {
        let key = (x, y, bw, bh, self.rc.last_mv.x, self.rc.last_mv.y, *params);
        if ref_idx == 0 {
            if let Some(&(r, delta)) = self.search_cache.get(&key) {
                *self.rc.stats += delta;
                return r;
            }
        }
        let before = *self.rc.stats;
        let r = search_scratch(
            self.rc.refs[ref_idx].y(),
            self.cur.y(),
            x,
            y,
            bw,
            bh,
            self.rc.last_mv,
            params,
            self.rc.stats,
            &mut self.scratch.motion,
        );
        if ref_idx == 0 {
            self.search_cache.insert(key, (r, *self.rc.stats - before));
        }
        r
    }

    fn code_block(&mut self, x: usize, y: usize, size: usize, depth: usize) {
        let (w, h) = (self.cur.width(), self.cur.height());
        if x >= w || y >= h {
            return;
        }
        if size > 16 {
            let split = self.should_split(x, y, size);
            self.rc
                .models
                .partition
                .encode(&mut self.enc, depth.min(1), split);
            if split {
                let half = size / 2;
                self.code_block(x, y, half, depth + 1);
                self.code_block(x + half, y, half, depth + 1);
                self.code_block(x, y + half, half, depth + 1);
                self.code_block(x + half, y + half, half, depth + 1);
                return;
            }
        }
        self.code_leaf(x, y, size);
    }

    /// Bounded recursive partition heuristic (paper §3.2): split when
    /// the whole-block match is poor relative to the quantizer scale.
    fn should_split(&mut self, x: usize, y: usize, size: usize) -> bool {
        let (w, h) = (self.cur.width(), self.cur.height());
        let bw = size.min(w - x);
        let bh = size.min(h - y);
        // Blocks straddling the frame edge always split for tighter fit.
        if bw < size || bh < size {
            return true;
        }
        if self.rc.refs.is_empty() {
            // Intra frame: split when spatial variance is high.
            self.load_cur(0, Area { x, y, w: bw, h: bh });
            let blk = &self.scratch.cur_blk;
            let mean = blk.iter().map(|&v| v as u64).sum::<u64>() / blk.len() as u64;
            let mad: u64 = blk
                .iter()
                .map(|&v| (v as i64 - mean as i64).unsigned_abs())
                .sum();
            return mad as f64 / (bw * bh) as f64 > self.rc.qp.step() * 0.75;
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
        let whole = self.cached_search(0, x, y, bw, bh, &bounded).sad;
        let half = size / 2;
        let mut subs = 0u64;
        for (qx, qy) in [(x, y), (x + half, y), (x, y + half), (x + half, y + half)] {
            if qx >= w || qy >= h {
                continue;
            }
            let sbw = half.min(w - qx);
            let sbh = half.min(h - qy);
            subs += self.cached_search(0, qx, qy, sbw, sbh, &bounded).sad;
        }
        let lambda_sad = 0.9 * self.rc.qp.step() * self.cfg.toolset.lambda_scale();
        let split_overhead_bits = 36.0; // three extra mode/MV sets
        (subs as f64 + lambda_sad * split_overhead_bits) < whole as f64
    }

    fn code_leaf(&mut self, x: usize, y: usize, size: usize) {
        let (w, h) = (self.cur.width(), self.cur.height());
        let a = Area {
            x,
            y,
            w: size.min(w - x),
            h: size.min(h - y),
        };
        // `cur_blk` crosses a `&mut self` call, so it is taken out of
        // the arena and restored (no allocation either way).
        self.load_cur(0, a);
        let cur_blk = std::mem::take(&mut self.scratch.cur_blk);
        let mode = self.choose_mode(x, y, a.w, a.h, &cur_blk);
        self.scratch.cur_blk = cur_blk;

        // Syntax: inter flag (when inter is possible), then mode details.
        let (enc, m) = (&mut self.enc, &mut self.rc.models);
        if !self.rc.refs.is_empty() {
            let is_inter = matches!(mode, BlockMode::Inter { .. });
            m.is_inter.encode(enc, 0, is_inter);
        }
        match &mode {
            BlockMode::Intra(im) => write_uint(enc, &mut m.intra_mode, 0, im.index() as u32),
            BlockMode::Inter {
                ref_idx,
                mv,
                compound,
            } => {
                write_uint(enc, &mut m.ref_idx, 0, *ref_idx as u32);
                write_mv(enc, m, 0, *mv, self.rc.last_mv);
                if self.cfg.profile.supports_compound() && self.rc.refs.len() >= 2 {
                    m.compound.encode(enc, 0, compound.is_some());
                    if let Some((r2, mv2)) = compound {
                        write_uint(enc, &mut m.ref_idx, 4, *r2 as u32);
                        write_mv(enc, m, 4, *mv2, *mv);
                    }
                }
            }
        }

        // Luma residual with adaptive transform size: sharp, spatially
        // concentrated residuals prefer the smaller transform (VP9's
        // adaptive TX size; H.264 High's 8x8/4x4 choice).
        self.rc.predict(0, &mode, a);
        self.residual();
        let t_full = size.min(max_tx(self.cfg.profile));
        let t = if t_full > 4 {
            let split_tx = tx_split_heuristic(&self.scratch.residual, a.w, a.h, t_full, self.rc.qp);
            self.rc
                .models
                .tx_split
                .encode(&mut self.enc, tx_class(t_full), split_tx);
            if split_tx {
                t_full / 2
            } else {
                t_full
            }
        } else {
            t_full
        };
        self.code_residual(0, a, t);

        // Chroma planes.
        let (ca, ct) = (a.chroma(), chroma_tx(self.cfg.profile, a));
        for p in 1..3 {
            self.load_cur(p, ca);
            self.rc.predict(p, &mode, ca);
            self.residual();
            self.code_residual(p, ca, ct);
        }
    }

    /// Copies block `a` of source plane `p` into `scratch.cur_blk`.
    fn load_cur(&mut self, p: usize, a: Area) {
        let blk = &mut self.scratch.cur_blk;
        blk.clear();
        blk.resize(a.w * a.h, 0);
        plane(self.cur, p).copy_block_clamped(a.x as isize, a.y as isize, a.w, a.h, blk);
    }

    /// `scratch.residual = scratch.cur_blk - pred` for the block just
    /// predicted.
    fn residual(&mut self) {
        let EncScratch {
            cur_blk, residual, ..
        } = &mut self.scratch;
        residual.clear();
        residual.resize(cur_blk.len(), 0);
        kernels::compute_residual(cur_blk, &self.rc.pred, residual);
    }

    /// Writes `scratch.residual` as the residual tiles of block `a` of
    /// plane `p` and reconstructs the block.
    fn code_residual(&mut self, p: usize, a: Area, t: usize) {
        let deadzone = self.cfg.toolset.deadzone();
        // The trellis runs on luma only.
        let trellis = p == 0 && self.cfg.toolset.trellis();
        let enc = &mut self.enc;
        let EncScratch {
            residual, tile_res, ..
        } = &mut self.scratch;
        self.rc.reconstruct(p, a, t, |models, stats, tile, qp, s| {
            tile_res.clear();
            tile_res.resize(s.w * s.h, 0);
            for r in 0..s.h {
                for c in 0..s.w {
                    tile_res[r * s.w + c] = residual[(s.y + r) * a.w + s.x + c];
                }
            }
            encode_tile(
                enc, models, tile_res, s.w, s.h, t, qp, deadzone, trellis, stats, tile,
            );
        });
    }

    fn choose_mode(
        &mut self,
        x: usize,
        y: usize,
        bw: usize,
        bh: usize,
        cur_blk: &[u8],
    ) -> BlockMode {
        let lambda_sad = 0.9 * self.rc.qp.step() * self.cfg.toolset.lambda_scale();
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
        let neighbors = IntraNeighbors::gather(self.rc.frame.y(), x, y, bw, bh);
        let mut pred_buf = std::mem::take(&mut self.scratch.mode_pred);
        pred_buf.clear();
        pred_buf.resize(bw * bh, 0);
        for &m in intra_modes(self.cfg.profile) {
            neighbors.predict(m, &mut pred_buf);
            self.rc.stats.intra_pixels += (bw * bh) as u64;
            let sad: u64 = metric(cur_blk, &pred_buf, self.rc.stats);
            if best_intra.is_none_or(|(_, s)| sad < s) {
                best_intra = Some((m, sad));
            }
        }
        self.scratch.mode_pred = pred_buf;
        let (intra_mode, intra_sad) = best_intra.expect("at least one intra mode");
        let intra_cost = intra_sad as f64 + lambda_sad * 4.0;

        if self.rc.refs.is_empty() {
            return BlockMode::Intra(intra_mode);
        }

        // Inter candidates: one search per reference (slot 0 through
        // the memo, where the split heuristic usually primed it).
        let sp = self.search;
        let mut per_ref = Vec::with_capacity(self.rc.refs.len());
        for ri in 0..self.rc.refs.len() {
            per_ref.push(self.cached_search(ri, x, y, bw, bh, &sp));
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
            mc_block(self.rc.refs[best_ri].y(), x, y, best_r.mv, bw, bh, &mut p);
            let m = metric(cur_blk, &p, self.rc.stats);
            self.scratch.mode_p1 = p;
            m
        } else {
            best_r.sad
        };
        let inter_cost =
            inter_metric as f64 + lambda_sad * (2.0 + mv_bits_estimate(best_r.mv, self.rc.last_mv));

        // Compound: average the two best references.
        let mut compound_choice: Option<((usize, MotionVector), f64)> = None;
        if self.cfg.profile.supports_compound() && self.rc.refs.len() >= 2 {
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
                mc_block(self.rc.refs[r1].y(), x, y, per_ref[r1].mv, bw, bh, &mut p1);
                mc_block(self.rc.refs[r2].y(), x, y, per_ref[r2].mv, bw, bh, &mut p2);
                self.rc.stats.mc_pixels += 2 * (bw * bh) as u64;
                kernels::avg_u8_inplace(&mut p1, &p2);
                let sad: u64 = metric(cur_blk, &p1, self.rc.stats);
                self.scratch.mode_p1 = p1;
                self.scratch.mode_p2 = p2;
                let cost = sad as f64
                    + lambda_sad
                        * (3.0
                            + mv_bits_estimate(per_ref[r1].mv, self.rc.last_mv)
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
pub fn decode_frame(
    profile: Profile,
    payload: &[u8],
    kind: FrameKind,
    qp: Qp,
    refs: &RefSlots,
    (width, height): (usize, usize),
    stats: &mut CodingStats,
) -> Result<Frame, CodecError> {
    let mut fd = FrameDec {
        dec: BoolDecoder::new(payload),
        rc: Recon::new(profile, kind, qp, refs, (width, height), stats),
    };
    let sb = profile.superblock_size();
    for (x, y) in superblocks(width, height, sb) {
        fd.code_block(x, y, sb, 0)?;
        // Past its end a payload reads as zero bytes forever, so without
        // this check a truncated frame costs what its declared size
        // says, not what its input holds.
        if fd.dec.overrun() {
            return Err(CodecError::CorruptBitstream("payload truncated"));
        }
    }
    Ok(fd.rc.finish())
}

struct FrameDec<'a> {
    dec: BoolDecoder<'a>,
    rc: Recon<'a>,
}

impl FrameDec<'_> {
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
            let split = self.rc.models.partition.decode(&mut self.dec, depth.min(1));
            if split {
                let half = size / 2;
                self.code_block(x, y, half, depth + 1)?;
                self.code_block(x + half, y, half, depth + 1)?;
                self.code_block(x, y + half, half, depth + 1)?;
                self.code_block(x + half, y + half, half, depth + 1)?;
                return Ok(());
            }
        }
        self.code_leaf(x, y, size)
    }

    fn code_leaf(&mut self, x: usize, y: usize, size: usize) -> Result<(), CodecError> {
        let (w, h) = (self.rc.frame.width(), self.rc.frame.height());
        let a = Area {
            x,
            y,
            w: size.min(w - x),
            h: size.min(h - y),
        };
        let (dec, m) = (&mut self.dec, &mut self.rc.models);
        let n_refs = self.rc.refs.len();
        let is_inter = n_refs > 0 && m.is_inter.decode(dec, 0);
        let mode = if is_inter {
            let ref_idx = read_uint(dec, &mut m.ref_idx, 0) as usize;
            if ref_idx >= n_refs {
                return Err(CodecError::CorruptBitstream("reference index out of range"));
            }
            let mv = read_mv(dec, m, 0, self.rc.last_mv);
            let compound = if self.rc.profile.supports_compound()
                && n_refs >= 2
                && m.compound.decode(dec, 0)
            {
                let r2 = read_uint(dec, &mut m.ref_idx, 4) as usize;
                if r2 >= n_refs {
                    return Err(CodecError::CorruptBitstream("compound ref out of range"));
                }
                Some((r2, read_mv(dec, m, 4, mv)))
            } else {
                None
            };
            BlockMode::Inter {
                ref_idx,
                mv,
                compound,
            }
        } else {
            let idx = read_uint(dec, &mut m.intra_mode, 0) as usize;
            let im = IntraMode::from_index(idx)
                .ok_or(CodecError::CorruptBitstream("intra mode out of range"))?;
            BlockMode::Intra(im)
        };

        // Luma: prediction, the adaptive transform-size flag, residual.
        self.rc.predict(0, &mode, a);
        let t_full = size.min(max_tx(self.rc.profile));
        let t = if t_full > 4
            && self
                .rc
                .models
                .tx_split
                .decode(&mut self.dec, tx_class(t_full))
        {
            t_full / 2
        } else {
            t_full
        };
        self.code_residual(0, a, t);

        // Chroma.
        let (ca, ct) = (a.chroma(), chroma_tx(self.rc.profile, a));
        for p in 1..3 {
            self.rc.predict(p, &mode, ca);
            self.code_residual(p, ca, ct);
        }
        Ok(())
    }

    /// Reads the residual tiles of block `a` of plane `p` and
    /// reconstructs the block.
    fn code_residual(&mut self, p: usize, a: Area, t: usize) {
        let dec = &mut self.dec;
        self.rc.reconstruct(p, a, t, |models, stats, tile, qp, s| {
            decode_tile(dec, models, s.w, s.h, t, qp, stats, tile);
        });
    }
}

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
    }
}
