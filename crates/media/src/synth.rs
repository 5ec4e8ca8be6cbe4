//! Deterministic synthetic video generation.
//!
//! The paper benchmarks on vbench — 15 videos spanning a 3-D space of
//! resolution, frame rate and entropy — plus proprietary production
//! uploads. Neither corpus ships with this repo, so we synthesize
//! content whose *encoding-relevant* properties are controllable:
//!
//! - **spatial detail** — multi-octave value noise amplitude; drives
//!   intra-coding cost,
//! - **motion** — a global pan plus independently moving objects;
//!   drives motion-estimation behaviour and inter-coding cost,
//! - **temporal noise** — per-frame sensor-like noise; sets the floor
//!   on inter-frame predictability (the "entropy" axis of vbench),
//! - **scene cuts** — periodic re-seeding; exercises keyframe/GOP
//!   decisions.
//!
//! Everything is deterministic in the seed, so tests and benches are
//! reproducible.
//!
//! Generation is separable where the maths is: the noise octaves'
//! lattice cell and smoothstep weight, and the pan's floor, clamped
//! index and fraction, each depend on one axis, so they are computed
//! once per column and once per row, and each lattice value once per
//! lattice row. Every pixel then runs the same f64 operations, in the
//! same order, as a per-pixel evaluation would, so the bytes do not
//! depend on the hoisting. Transient buffers are one row long.

use crate::frame::{Frame, Video};
use crate::plane::Plane;
use crate::resolution::Resolution;

/// Content parameters, i.e. "what kind of video is this".
///
/// The constructors mirror the qualitative classes visible in the
/// paper's Fig. 7 (easy `presentation`/`desktop` at the top, hard
/// high-motion `holi` at the bottom).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentClass {
    /// Amplitude of spatial texture in [0, 1]. 0 = flat, 1 = dense texture.
    pub spatial_detail: f64,
    /// Global pan speed in luma pixels/frame.
    pub pan_speed: f64,
    /// Number of independently moving objects.
    pub objects: usize,
    /// Object speed in pixels/frame.
    pub object_speed: f64,
    /// Std-dev of per-frame additive noise (grain), in code values.
    pub noise_sigma: f64,
    /// Scene cut every N frames (`None` = never).
    pub scene_cut_period: Option<usize>,
}

impl ContentClass {
    /// Static screen-share content: near-zero motion, crisp detail,
    /// no noise — the easiest class to encode (vbench `presentation`,
    /// `desktop`).
    pub fn screen_content() -> Self {
        ContentClass {
            spatial_detail: 0.65,
            pan_speed: 0.0,
            objects: 0,
            object_speed: 0.0,
            noise_sigma: 0.0,
            scene_cut_period: None,
        }
    }

    /// A talking-head / interview shot: low motion, mild noise.
    pub fn talking_head() -> Self {
        ContentClass {
            spatial_detail: 0.35,
            pan_speed: 0.1,
            objects: 1,
            object_speed: 0.4,
            noise_sigma: 1.5,
            scene_cut_period: None,
        }
    }

    /// General user-generated content: moderate motion and noise.
    pub fn ugc() -> Self {
        ContentClass {
            spatial_detail: 0.5,
            pan_speed: 1.0,
            objects: 3,
            object_speed: 1.5,
            noise_sigma: 2.5,
            scene_cut_period: Some(120),
        }
    }

    /// Gaming content: fast pans, many moving sprites, sharp detail.
    pub fn gaming() -> Self {
        ContentClass {
            spatial_detail: 0.7,
            pan_speed: 3.0,
            objects: 6,
            object_speed: 4.0,
            noise_sigma: 0.5,
            scene_cut_period: Some(240),
        }
    }

    /// Sports / festival content with heavy motion and grain — the
    /// hardest class (vbench `holi`, `cricket`).
    pub fn high_motion() -> Self {
        ContentClass {
            spatial_detail: 0.8,
            pan_speed: 4.0,
            objects: 10,
            object_speed: 6.0,
            noise_sigma: 4.0,
            scene_cut_period: Some(90),
        }
    }
}

/// Specification for one synthetic clip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthSpec {
    /// Output resolution.
    pub resolution: Resolution,
    /// Number of frames to generate.
    pub frames: usize,
    /// Frames per second.
    pub fps: f64,
    /// Content parameters.
    pub content: ContentClass,
    /// RNG seed; equal specs generate bit-identical videos.
    pub seed: u64,
}

impl SynthSpec {
    /// Creates a 30 fps spec.
    pub fn new(resolution: Resolution, frames: usize, content: ContentClass, seed: u64) -> Self {
        SynthSpec {
            resolution,
            frames,
            fps: 30.0,
            content,
            seed,
        }
    }

    /// Sets the frame rate.
    pub fn with_fps(mut self, fps: f64) -> Self {
        self.fps = fps;
        self
    }

    /// Generates the video.
    ///
    /// # Panics
    ///
    /// Panics if `frames == 0`.
    pub fn generate(&self) -> Video {
        assert!(self.frames > 0, "must generate at least one frame");
        let (w, h) = self.resolution.dims();
        let mut gen = SceneGen::new(*self, w, h);
        let frames: Vec<Frame> = (0..self.frames).map(|t| gen.frame(t)).collect();
        Video::new(frames, self.fps)
    }
}

/// Internal scene state: a large textured background panned over, plus
/// moving objects composited on top.
struct SceneGen {
    spec: SynthSpec,
    w: usize,
    h: usize,
    background: Plane,
    bg_u: Plane,
    bg_v: Plane,
    scene_index: usize,
}

impl SceneGen {
    fn new(spec: SynthSpec, w: usize, h: usize) -> Self {
        let mut g = SceneGen {
            spec,
            w,
            h,
            background: Plane::new(1, 1),
            bg_u: Plane::new(1, 1),
            bg_v: Plane::new(1, 1),
            scene_index: usize::MAX,
        };
        g.build_scene(0);
        g
    }

    fn scene_of(&self, t: usize) -> usize {
        match self.spec.content.scene_cut_period {
            Some(p) if p > 0 => t / p,
            _ => 0,
        }
    }

    fn build_scene(&mut self, scene: usize) {
        if self.scene_index == scene {
            return;
        }
        self.scene_index = scene;
        let seed = splitmix(self.spec.seed ^ (scene as u64).wrapping_mul(0x9E3779B97F4A7C15));
        // Background larger than the viewport so panning has room.
        let margin = (self.spec.content.pan_speed.abs() * self.spec.frames as f64).ceil() as usize
            + (self.spec.content.object_speed.abs() * 4.0) as usize
            + 16;
        let bw = self.w + 2 * margin.min(self.w * 2);
        let bh = self.h + 2 * margin.min(self.h * 2);
        let detail = self.spec.content.spatial_detail;
        self.background = value_noise_plane(bw, bh, detail, seed);
        self.bg_u = value_noise_plane(bw / 2, bh / 2, detail * 0.4, seed ^ 0xA5A5)
            .shifted_towards(128, 0.7);
        self.bg_v = value_noise_plane(bw / 2, bh / 2, detail * 0.4, seed ^ 0x5A5A)
            .shifted_towards(128, 0.7);
    }

    fn frame(&mut self, t: usize) -> Frame {
        let scene = self.scene_of(t);
        self.build_scene(scene);
        let local_t = match self.spec.content.scene_cut_period {
            Some(p) if p > 0 => t % p,
            _ => t,
        };
        let c = self.spec.content;
        let seed = splitmix(self.spec.seed ^ (scene as u64) << 32);

        // Global pan with a slight diagonal component.
        let pan_x = c.pan_speed * local_t as f64;
        let pan_y = c.pan_speed * 0.37 * local_t as f64;
        let max_x = (self.background.width() - self.w) as f64;
        let max_y = (self.background.height() - self.h) as f64;
        let ox = pan_x.rem_euclid(max_x.max(1.0));
        let oy = pan_y.rem_euclid(max_y.max(1.0));

        let mut y = sample_panned(&self.background, self.w, self.h, ox, oy);
        let (cw, ch) = (self.w / 2, self.h / 2);
        let u = sample_panned(&self.bg_u, cw, ch, ox / 2.0, oy / 2.0);
        let v = sample_panned(&self.bg_v, cw, ch, ox / 2.0, oy / 2.0);

        // Moving objects: textured rectangles on deterministic orbits.
        for i in 0..c.objects {
            let os = splitmix(seed ^ (i as u64 + 1).wrapping_mul(0xD1B54A32D192ED03));
            let ow = 8 + (os % (self.w as u64 / 6 + 1)) as usize;
            let oh = 8 + ((os >> 8) % (self.h as u64 / 6 + 1)) as usize;
            let phase = (os >> 16) as f64 / u32::MAX as f64 * std::f64::consts::TAU;
            let speed = c.object_speed * (0.5 + ((os >> 24) & 0xFF) as f64 / 255.0);
            let cx = self.w as f64 / 2.0
                + (self.w as f64 / 3.0) * (phase + speed * local_t as f64 * 0.02).cos();
            let cy = self.h as f64 / 2.0
                + (self.h as f64 / 3.0) * (phase * 1.7 + speed * local_t as f64 * 0.013).sin();
            let shade = 48 + ((os >> 32) % 160) as u8;
            let x0 = (cx - ow as f64 / 2.0) as isize;
            let y0 = (cy - oh as f64 / 2.0) as isize;
            for by in 0..oh {
                for bx in 0..ow {
                    let px = x0 + bx as isize;
                    let py = y0 + by as isize;
                    if px >= 0 && py >= 0 && (px as usize) < self.w && (py as usize) < self.h {
                        // Light texture on the object so it is not flat.
                        let tex = (hash2(bx as u64, by as u64, os) % 32) as u8;
                        y.set(px as usize, py as usize, shade.saturating_add(tex));
                    }
                }
            }
        }

        // Temporal noise (film grain / sensor noise).
        if c.noise_sigma > 0.0 {
            let nseed = splitmix(seed ^ (t as u64).wrapping_mul(0xBF58476D1CE4E5B9));
            add_noise(&mut y, c.noise_sigma, nseed);
        }

        Frame::from_planes(y, u, v)
    }
}

impl Plane {
    /// Linearly blends every pixel towards `target`: `p + (target - p) * k`.
    /// Used to mute chroma texture.
    fn shifted_towards(mut self, target: u8, k: f64) -> Plane {
        for p in self.data_mut() {
            let v = *p as f64 + (target as f64 - *p as f64) * k;
            *p = v.round().clamp(0.0, 255.0) as u8;
        }
        self
    }
}

/// A `w x h` window of `src` at offset `(ox, oy)`: pixel `(x, y)` is
/// [`Plane::sample_bilinear`] at `(x + ox, y + oy)`. The floor, clamped
/// indices and fraction are computed once per column and once per row;
/// the per-pixel lerp is `sample_bilinear`'s, operation for operation.
fn sample_panned(src: &Plane, w: usize, h: usize, ox: f64, oy: f64) -> Plane {
    // Clamped taps `floor(v)` and `floor(v) + 1` and the weights
    // `(1 - f, f)` of the fraction `f`.
    let taps = |v: f64, len: usize| {
        let v0 = v.floor() as isize;
        let f = v - v0 as f64;
        let clamp = |i: isize| i.clamp(0, len as isize - 1) as usize;
        (clamp(v0), clamp(v0 + 1), 1.0 - f, f)
    };
    let cols: Vec<_> = (0..w).map(|x| taps(x as f64 + ox, src.width())).collect();
    let mut p = Plane::new(w, h);
    for (y, row) in p.data_mut().chunks_exact_mut(w.max(1)).enumerate() {
        let (y0, y1, gy, fy) = taps(y as f64 + oy, src.height());
        let (r0, r1) = (src.row(y0), src.row(y1));
        for (px, &(x0, x1, gx, fx)) in row.iter_mut().zip(&cols) {
            let top = r0[x0] as f64 * gx + r0[x1] as f64 * fx;
            let bot = r1[x0] as f64 * gx + r1[x1] as f64 * fx;
            *px = (top * gy + bot * fy).round().clamp(0.0, 255.0) as u8;
        }
    }
    p
}

/// Multi-octave value noise: smooth at low detail, busy at high detail.
///
/// Pixel `(x, y)` is `128 + Σ amp · noise(x / cell, y / cell)` over the
/// octaves from coarse to fine, where `noise` is the smoothstep-weighted
/// bilinear blend of the four surrounding lattice values in [-1, 1].
/// The sum runs a row at a time, octave by octave, so each pixel still
/// adds its octaves in ascending order.
fn value_noise_plane(w: usize, h: usize, detail: f64, seed: u64) -> Plane {
    let detail = detail.clamp(0.0, 1.0);
    // Octave cell sizes from coarse to fine; amplitude of fine octaves
    // scales with `detail`.
    let octaves: [(usize, f64); 4] = [
        (64, 60.0),
        (16, 35.0 * detail + 8.0),
        (8, 25.0 * detail),
        (4, 18.0 * detail * detail),
    ];
    let mut octaves: Vec<Octave> = octaves
        .iter()
        .enumerate()
        .filter(|&(_, &(_, amp))| amp > 0.0)
        .map(|(k, &(cell, amp))| Octave::new(cell, amp, seed ^ ((k as u64 + 1) << 48), w))
        .collect();
    let mut p = Plane::new(w, h);
    let mut acc = vec![0.0f64; w];
    for (y, row) in p.data_mut().chunks_exact_mut(w.max(1)).enumerate() {
        acc.fill(128.0);
        for o in &mut octaves {
            o.add_row(y, &mut acc);
        }
        for (px, &a) in row.iter_mut().zip(&acc) {
            *px = a.round().clamp(0.0, 255.0) as u8;
        }
    }
    p
}

/// One octave of lattice noise, evaluated a row at a time.
struct Octave {
    cell: usize,
    amp: f64,
    seed: u64,
    /// Per column: lattice column and the smoothstep weights `(1 - fx, fx)`.
    cols: Vec<(usize, f64, f64)>,
    /// Lattice row whose values `top` holds (`bot` holds the next).
    iy: Option<u64>,
    top: Vec<f64>,
    bot: Vec<f64>,
}

impl Octave {
    fn new(cell: usize, amp: f64, seed: u64, w: usize) -> Self {
        let cols: Vec<(usize, f64, f64)> = (0..w)
            .map(|x| {
                let (ix, fx) = lattice_coord(x, cell);
                (ix as usize, 1.0 - fx, fx)
            })
            .collect();
        let lattice_w = cols.last().map_or(0, |&(ix, ..)| ix + 2);
        Octave {
            cell,
            amp,
            seed,
            cols,
            iy: None,
            top: vec![0.0; lattice_w],
            bot: vec![0.0; lattice_w],
        }
    }

    /// Adds this octave's `amp * noise` for pixel row `y` into `acc`.
    fn add_row(&mut self, y: usize, acc: &mut [f64]) {
        let (iy, fy) = lattice_coord(y, self.cell);
        if self.iy != Some(iy) {
            if self.iy.map(|prev| prev + 1) == Some(iy) {
                std::mem::swap(&mut self.top, &mut self.bot);
            } else {
                lattice_row(&mut self.top, iy, self.seed);
            }
            lattice_row(&mut self.bot, iy + 1, self.seed);
            self.iy = Some(iy);
        }
        let gy = 1.0 - fy;
        let (top, bot) = (&self.top, &self.bot);
        for (a, &(ix, gx, fx)) in acc.iter_mut().zip(&self.cols) {
            let t = top[ix] * gx + top[ix + 1] * fx;
            let b = bot[ix] * gx + bot[ix + 1] * fx;
            *a += self.amp * (t * gy + b * fy);
        }
    }
}

/// Fills `row` with the lattice values of lattice row `iy`.
fn lattice_row(row: &mut [f64], iy: u64, seed: u64) {
    for (ix, v) in row.iter_mut().enumerate() {
        *v = lattice_value(ix as u64, iy, seed);
    }
}

/// Lattice index `floor(i / cell)` and smoothstep weight of the
/// fraction, from the same f64 quotient a per-pixel evaluation takes.
fn lattice_coord(i: usize, cell: usize) -> (u64, f64) {
    let v = i as f64 / cell as f64;
    let v0 = v.floor();
    (v0 as i64 as u64, smooth(v - v0))
}

fn smooth(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

fn lattice_value(x: u64, y: u64, seed: u64) -> f64 {
    (hash2(x, y, seed) as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// `hash2`'s per-axis multipliers.
const HASH_X: u64 = 0x9E3779B97F4A7C15;
const HASH_Y: u64 = 0xC2B2AE3D27D4EB4F;

fn hash2(x: u64, y: u64, seed: u64) -> u64 {
    splitmix(
        seed.wrapping_add(x.wrapping_mul(HASH_X))
            .wrapping_add(y.wrapping_mul(HASH_Y)),
    )
}

/// SplitMix64 — small, fast, deterministic hash/PRNG step.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Adds approximately-Gaussian noise (sum of 4 uniforms) to a plane.
///
/// Pixel `(x, y)` draws `hash2(x, y, seed)`. Wrapping addition is
/// associative, so the key is the row's `seed + y * HASH_Y` plus
/// `x * HASH_X`, stepped by `HASH_X` along the row.
fn add_noise(p: &mut Plane, sigma: f64, seed: u64) {
    let w = p.width();
    for (y, row) in p.data_mut().chunks_exact_mut(w.max(1)).enumerate() {
        let mut key = seed.wrapping_add((y as u64).wrapping_mul(HASH_Y));
        for px in row {
            let h = splitmix(key);
            key = key.wrapping_add(HASH_X);
            // Four 8-bit lanes -> approx normal with sigma ~ sqrt(4*(1/12))*255...
            let sum = (h & 0xFF) + ((h >> 8) & 0xFF) + ((h >> 16) & 0xFF) + ((h >> 24) & 0xFF);
            // mean 510, std ~147.2
            let n = (sum as f64 - 510.0) / 147.2;
            let v = *px as f64 + n * sigma;
            *px = v.round().clamp(0.0, 255.0) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::psnr_y;

    fn small(content: ContentClass, frames: usize, seed: u64) -> Video {
        SynthSpec::new(Resolution::R144, frames, content, seed).generate()
    }

    #[test]
    fn deterministic_in_seed() {
        let a = small(ContentClass::ugc(), 4, 42);
        let b = small(ContentClass::ugc(), 4, 42);
        assert_eq!(a, b);
        let c = small(ContentClass::ugc(), 4, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn dimensions_match_resolution() {
        let v = small(ContentClass::talking_head(), 2, 1);
        assert_eq!(v.width(), 256);
        assert_eq!(v.height(), 144);
        assert_eq!(v.frames[0].u().width(), 128);
    }

    #[test]
    fn static_content_is_static() {
        let v = small(ContentClass::screen_content(), 3, 5);
        // No pan, no objects, no noise: frames identical.
        assert_eq!(v.frames[0], v.frames[1]);
        assert_eq!(v.frames[1], v.frames[2]);
    }

    #[test]
    fn motion_content_changes_between_frames() {
        let v = small(ContentClass::high_motion(), 3, 5);
        assert_ne!(v.frames[0], v.frames[1]);
        let p = psnr_y(&v.frames[0], &v.frames[1]);
        assert!(
            p < 40.0,
            "consecutive high-motion frames too similar: {p} dB"
        );
    }

    #[test]
    fn talking_head_is_temporally_predictable() {
        let v = small(ContentClass::talking_head(), 3, 5);
        let p = psnr_y(&v.frames[0], &v.frames[1]);
        assert!(p > 24.0, "talking head should be predictable: {p} dB");
    }

    #[test]
    fn scene_cut_changes_content_abruptly() {
        let content = ContentClass {
            scene_cut_period: Some(4),
            ..ContentClass::talking_head()
        };
        let v = small(content, 8, 9);
        let within = psnr_y(&v.frames[1], &v.frames[2]);
        let across = psnr_y(&v.frames[3], &v.frames[4]);
        assert!(
            across < within - 3.0,
            "cut boundary {across} dB vs within-scene {within} dB"
        );
    }

    #[test]
    fn detail_raises_spatial_variance() {
        let flat = value_noise_plane(64, 64, 0.0, 7);
        let busy = value_noise_plane(64, 64, 1.0, 7);
        let var = |p: &Plane| {
            let m = p.mean();
            p.data()
                .iter()
                .map(|&v| (v as f64 - m).powi(2))
                .sum::<f64>()
                / p.data().len() as f64
        };
        assert!(var(&busy) > var(&flat) * 1.2);
    }

    #[test]
    fn noise_sigma_scales_noise() {
        let mut a = Plane::new(64, 64);
        a.fill(128);
        let mut b = a.clone();
        add_noise(&mut b, 3.0, 77);
        let m = mse(&a, &b);
        // MSE should be near sigma^2 = 9.
        assert!((4.0..16.0).contains(&m), "mse {m}");
    }

    /// The per-pixel lattice noise the row-wise octaves replace.
    fn lattice_noise(x: f64, y: f64, seed: u64) -> f64 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = smooth(x - x0);
        let fy = smooth(y - y0);
        let (ix, iy) = (x0 as i64 as u64, y0 as i64 as u64);
        let v00 = lattice_value(ix, iy, seed);
        let v10 = lattice_value(ix.wrapping_add(1), iy, seed);
        let v01 = lattice_value(ix, iy.wrapping_add(1), seed);
        let v11 = lattice_value(ix.wrapping_add(1), iy.wrapping_add(1), seed);
        let top = v00 * (1.0 - fx) + v10 * fx;
        let bot = v01 * (1.0 - fx) + v11 * fx;
        top * (1.0 - fy) + bot * fy
    }

    #[test]
    fn hoisted_passes_match_per_pixel_evaluation() {
        for (w, h, detail, seed) in [(67, 35, 0.8, 3), (130, 9, 0.0, 4), (1, 70, 1.0, 5)] {
            let octaves = [
                (64, 60.0),
                (16, 35.0 * detail + 8.0),
                (8, 25.0 * detail),
                (4, 18.0 * detail * detail),
            ];
            let want = Plane::from_fn(w, h, |x, y| {
                let mut acc = 128.0;
                for (k, &(cell, amp)) in octaves.iter().enumerate() {
                    if amp <= 0.0 {
                        continue;
                    }
                    let oseed = seed ^ ((k as u64 + 1) << 48);
                    acc +=
                        amp * lattice_noise(x as f64 / cell as f64, y as f64 / cell as f64, oseed);
                }
                acc.round().clamp(0.0, 255.0) as u8
            });
            let noise = value_noise_plane(w, h, detail, seed);
            assert_eq!(noise, want, "value noise {w}x{h}");

            // Offsets past either edge exercise the clamped taps.
            for (ox, oy) in [(0.0, 0.0), (3.25, 17.5), (60.75, 0.125), (-2.5, -1.0)] {
                let want = Plane::from_fn(w + 5, h + 3, |x, y| {
                    noise.sample_bilinear(x as f64 + ox, y as f64 + oy)
                });
                let got = sample_panned(&noise, w + 5, h + 3, ox, oy);
                assert_eq!(got, want, "pan ({ox}, {oy}) over {w}x{h}");
            }

            let mut want = noise.clone();
            for (i, px) in want.data_mut().iter_mut().enumerate() {
                let hash = hash2((i % w) as u64, (i / w) as u64, seed);
                let sum = (hash & 0xFF)
                    + ((hash >> 8) & 0xFF)
                    + ((hash >> 16) & 0xFF)
                    + ((hash >> 24) & 0xFF);
                let n = (sum as f64 - 510.0) / 147.2;
                *px = (*px as f64 + n * 2.5).round().clamp(0.0, 255.0) as u8;
            }
            let mut got = noise;
            add_noise(&mut got, 2.5, seed);
            assert_eq!(got, want, "grain {w}x{h}");
        }
    }

    fn mse(a: &Plane, b: &Plane) -> f64 {
        a.sse(b) as f64 / (a.width() * a.height()) as f64
    }
}
