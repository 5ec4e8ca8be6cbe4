//! Property-based tests over the core data structures and invariants,
//! driven by the in-repo seeded harness (`vcu_rng::prop_cases!`). A
//! failing case prints the exact seed; replay it with
//! `VCU_PROP_SEED=<seed> cargo test <name>`.

use vcu_chip::ResourceDemand;
use vcu_cluster::{PlacementMode, Scheduler, SchedulerKind};
use vcu_codec::entropy::{AdaptiveModel, BoolDecoder, BoolEncoder};
use vcu_codec::{decode, encode, encode_parallel_traced, CodingStats, EncoderConfig, Profile, Qp};
use vcu_media::bdrate::{bd_rate, RdPoint};
use vcu_media::scale::scale_plane;
use vcu_media::synth::{ContentClass, SynthSpec};
use vcu_media::{Frame, Plane, Resolution, Video};
use vcu_rng::prop_cases;

prop_cases! {
    /// The arithmetic coder round-trips any bit sequence at any
    /// probability sequence.
    #[cases(256)]
    fn bool_coder_round_trips(rng) {
        let n = rng.gen_range(1usize..500);
        let bits: Vec<(bool, u8)> = (0..n)
            .map(|_| (rng.gen_bool(0.5), rng.gen_range(1u8..=255)))
            .collect();
        let mut enc = BoolEncoder::new();
        for (b, p) in &bits {
            enc.put(*b, *p);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(&bytes);
        for (b, p) in &bits {
            assert_eq!(dec.get(*p), *b);
        }
    }

    /// Adaptive integer coding round-trips arbitrary values, the ends
    /// of the `i32` domain included, mixed in among the small ones so a
    /// desync after a wide value shows in the values that follow it.
    #[cases(256)]
    fn adaptive_ints_round_trip(rng) {
        let n = rng.gen_range(1usize..200);
        let mut values: Vec<i32> = (0..n).map(|_| rng.gen_range(-100_000i32..100_000)).collect();
        for edge in [i32::MIN, i32::MIN + 1, i32::MAX, (1 << 30) + 2, -(1 << 30) - 2] {
            values.insert(rng.gen_range(0..values.len() + 1), edge);
        }
        let mut enc = BoolEncoder::new();
        let mut me = AdaptiveModel::new(8);
        for v in &values {
            me.code_int(&mut enc, 0, *v);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(&bytes);
        let mut md = AdaptiveModel::new(8);
        for v in &values {
            assert_eq!(md.code_int(&mut dec, 0, 0), *v);
        }
    }

    /// Unsigned variant, with values whose exp-Golomb prefix runs 29
    /// to 31 ones (up to `u32::MAX`) mixed in.
    #[cases(256)]
    fn adaptive_uints_round_trip(rng) {
        let n = rng.gen_range(1usize..200);
        let mut values: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..2_000_000)).collect();
        for edge in [(1 << 30) - 2, (1 << 30) + 2, 1 << 31, u32::MAX - 1, u32::MAX] {
            values.insert(rng.gen_range(0..values.len() + 1), edge);
        }
        let mut enc = BoolEncoder::new();
        let mut me = AdaptiveModel::new(8);
        for v in &values {
            me.code_uint(&mut enc, 0, *v);
        }
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(&bytes);
        let mut md = AdaptiveModel::new(8);
        for v in &values {
            assert_eq!(md.code_uint(&mut dec, 0, 0), *v);
        }
    }

    /// Plane block copy with clamping never panics and always fills
    /// the destination, for any geometry.
    #[cases(256)]
    fn plane_block_copy_total(rng) {
        let w = rng.gen_range(1usize..64);
        let h = rng.gen_range(1usize..64);
        let x = rng.gen_range(-70isize..70);
        let y = rng.gen_range(-70isize..70);
        let bw = rng.gen_range(1usize..32);
        let bh = rng.gen_range(1usize..32);
        let p = Plane::from_fn(w, h, |a, b| (a * 7 + b * 13) as u8);
        let mut dst = vec![1u8; bw * bh];
        p.copy_block_clamped(x, y, bw, bh, &mut dst);
        // Every value must be a value that exists in the plane (clamp
        // can only replicate real pixels).
        for v in dst {
            assert!(p.data().contains(&v));
        }
    }

    /// Downscaling preserves the mean within rounding.
    #[cases(256)]
    fn scaling_preserves_mean(rng) {
        let seed = rng.gen_range(0u64..500);
        let p = Plane::from_fn(48, 32, |x, y| {
            ((x as u64 * 31 + y as u64 * 17 + seed * 7) % 251) as u8
        });
        let s = scale_plane(&p, 24, 16);
        assert!((p.mean() - s.mean()).abs() < 3.0);
    }

    /// BD-rate antisymmetry: bd(a,b) and bd(b,a) compose to identity.
    #[cases(256)]
    fn bd_rate_antisymmetric(rng) {
        let mult = rng.gen_range(0.3f64..3.0);
        let curve = |m: f64| -> Vec<RdPoint> {
            [0.5f64, 1.0, 2.0, 4.0]
                .iter()
                .map(|&r| RdPoint::new(r * m * 1e6, 10.0 * (r * 1e6).log10()))
                .collect()
        };
        let a = curve(1.0);
        let b = curve(mult);
        let ab = bd_rate(&a, &b).unwrap();
        let ba = bd_rate(&b, &a).unwrap();
        let prod = (1.0 + ab / 100.0) * (1.0 + ba / 100.0);
        assert!((prod - 1.0).abs() < 1e-6, "prod {}", prod);
    }

    /// Frame invariants: chroma is half luma, raw size is 1.5 B/px.
    #[cases(256)]
    fn frame_invariants(rng) {
        let w = rng.gen_range(1usize..32);
        let h = rng.gen_range(1usize..32);
        let f = Frame::new(w * 2, h * 2);
        assert_eq!(f.u().width() * 2, f.width());
        assert_eq!(f.raw_bytes(), (f.pixels() * 3) / 2);
    }
}

// Whole-codec round trips are expensive; keep the case count low.
prop_cases! {
    /// The decoder reproduces frame counts and stays within sane
    /// distortion bounds for arbitrary synthetic content and QP.
    #[cases(6)]
    fn codec_round_trip_any_content(rng) {
        let seed = rng.gen_range(0u64..1000);
        let qp = rng.gen_range(8u8..55);
        let profile_vp9 = rng.gen_bool(0.5);
        let frames = rng.gen_range(2usize..6);
        let content = ContentClass {
            spatial_detail: (seed % 10) as f64 / 10.0,
            pan_speed: (seed % 4) as f64,
            objects: (seed % 5) as usize,
            object_speed: (seed % 3) as f64,
            noise_sigma: (seed % 4) as f64,
            scene_cut_period: None,
        };
        let video: Video = SynthSpec::new(Resolution::R144, frames, content, seed).generate();
        let profile = if profile_vp9 { Profile::Vp9Sim } else { Profile::H264Sim };
        let cfg = EncoderConfig::const_qp(profile, Qp::new(qp));
        let e = encode(&cfg, &video).expect("encode");
        let d = decode(&e.bytes).expect("decode own bitstream");
        assert_eq!(d.video.frames.len(), video.frames.len());
        assert_eq!(d.video.width(), video.width());
        // Reconstruction error bounded by quantizer scale: max per-pixel
        // error across the video should not exceed a generous multiple
        // of the step size.
        let max_err = video
            .frames
            .iter()
            .zip(&d.video.frames)
            .flat_map(|(a, b)| {
                a.y().data().iter().zip(b.y().data()).map(|(x, y)| (*x as i32 - *y as i32).abs())
            })
            .max()
            .unwrap_or(0);
        let bound = (Qp::new(qp).step() * 12.0 + 48.0) as i32;
        assert!(max_err <= bound, "max err {} > bound {}", max_err, bound);
    }

    /// Any single-byte container corruption is either detected or
    /// changes the output (never silently decodes identically).
    #[cases(6)]
    fn corruption_never_silently_identical(rng) {
        let pos_frac = rng.gen_range(0.1f64..0.95);
        let flip = rng.gen_range(1u8..255);
        let video = SynthSpec::new(
            Resolution::R144, 3, ContentClass::talking_head(), 4,
        ).generate();
        let cfg = EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30));
        let e = encode(&cfg, &video).expect("encode");
        let reference = decode(&e.bytes).expect("decode").video;
        let mut bytes = e.bytes.clone();
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        bytes[pos] ^= flip;
        match decode(&bytes) {
            Err(_) => {} // detected: good
            Ok(d) => assert_ne!(d.video, reference),
        }
    }
}

prop_cases! {
    /// The decoder never panics on arbitrary garbage input.
    #[cases(64)]
    fn decoder_total_on_garbage(rng) {
        let n = rng.gen_range(0usize..400);
        let bytes: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..=255)).collect();
        let _ = decode(&bytes); // must return, never panic
    }

    /// Nor on garbage wearing a valid container header.
    #[cases(64)]
    fn decoder_total_on_framed_garbage(rng) {
        let n = rng.gen_range(0usize..300);
        let payload: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..=255)).collect();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"VCSM");
        bytes.push(1); // version
        bytes.push(1); // vp9 profile
        bytes.extend_from_slice(&64u16.to_le_bytes());
        bytes.extend_from_slice(&64u16.to_le_bytes());
        bytes.extend_from_slice(&30.0f32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0); // key frame
        bytes.push(30); // qp
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        // Correct checksum so the payload reaches the frame decoder.
        let mut h: u32 = 0x811C9DC5;
        for &b in &payload {
            h ^= b as u32;
            h = h.wrapping_mul(16777619);
        }
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&h.to_le_bytes());
        let _ = decode(&bytes); // must return, never panic
    }
}

prop_cases! {
    /// The fixed-point half-pel interpolator is the f64 bilinear
    /// sampler: for any plane, any block geometry (including blocks
    /// hanging off every edge), and any half-pel phase, every output
    /// pixel matches `sample_bilinear` at the equivalent fractional
    /// coordinate.
    #[cases(256)]
    fn hpel_integer_matches_f64_reference(rng) {
        let w = rng.gen_range(1usize..48);
        let h = rng.gen_range(1usize..48);
        let p = Plane::from_fn(w, h, |_, _| rng.gen_range(0u32..256) as u8);
        let x = rng.gen_range(-8isize..w as isize + 8);
        let y = rng.gen_range(-8isize..h as isize + 8);
        let (fx, fy) = (rng.gen_range(0u32..2) as u8, rng.gen_range(0u32..2) as u8);
        let bw = rng.gen_range(1usize..17);
        let bh = rng.gen_range(1usize..17);
        let mut dst = vec![0u8; bw * bh];
        p.copy_block_hpel(x, y, fx, fy, bw, bh, &mut dst);
        for by in 0..bh {
            for bx in 0..bw {
                let want = p.sample_bilinear(
                    (x + bx as isize) as f64 + fx as f64 * 0.5,
                    (y + by as isize) as f64 + fy as f64 * 0.5,
                );
                assert_eq!(
                    dst[by * bw + bx], want,
                    "({bx},{by}) of {bw}x{bh} at ({x},{y}) phase ({fx},{fy})"
                );
            }
        }
    }

    /// Early-exit SAD picks the same winner as exhaustive SAD: running
    /// a best-candidate scan with `sad_block_thresholded` (pruned at
    /// the running best) selects the identical candidate and cost that
    /// the unpruned sum (threshold `u64::MAX`) does.
    #[cases(256)]
    fn thresholded_sad_selects_same_winner(rng) {
        let w = rng.gen_range(8usize..40);
        let h = rng.gen_range(8usize..40);
        let p = Plane::from_fn(w, h, |_, _| rng.gen_range(0u32..256) as u8);
        let bw = rng.gen_range(1usize..9);
        let bh = rng.gen_range(1usize..9);
        let cur: Vec<u8> = (0..bw * bh).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let n_cand = rng.gen_range(1usize..20);
        let cands: Vec<(isize, isize)> = (0..n_cand)
            .map(|_| (rng.gen_range(-4isize..w as isize), rng.gen_range(-4isize..h as isize)))
            .collect();
        let (mut best_ref, mut besti_ref) = (u64::MAX, 0usize);
        for (i, &(cx, cy)) in cands.iter().enumerate() {
            let s = p.sad_block_thresholded(cx, cy, bw, bh, &cur, u64::MAX).0;
            if s < best_ref {
                best_ref = s;
                besti_ref = i;
            }
        }
        let (mut best, mut besti) = (u64::MAX, 0usize);
        for (i, &(cx, cy)) in cands.iter().enumerate() {
            let (s, examined) = p.sad_block_thresholded(cx, cy, bw, bh, &cur, best);
            assert!(examined <= (bw * bh) as u64);
            if s < best {
                best = s;
                besti = i;
            }
        }
        assert_eq!((besti, best), (besti_ref, best_ref), "pruning changed the search winner");
    }

    /// Merging per-chunk stats is order-independent: the same multiset
    /// of `CodingStats` sums to the same total regardless of merge
    /// order, so parallel completion order can never leak into results.
    #[cases(256)]
    fn stats_merge_is_order_independent(rng) {
        let n = rng.gen_range(2usize..12);
        let mut parts: Vec<CodingStats> = (0..n)
            .map(|_| {
                let mut s = CodingStats::new();
                s.pixels = rng.gen_range(0u64..1 << 40);
                s.frames = rng.gen_range(0u64..1 << 16);
                s.sad_pixels = rng.gen_range(0u64..1 << 40);
                s.sad_pixels_examined = rng.gen_range(0u64..1 << 40);
                s.transform_pixels = rng.gen_range(0u64..1 << 40);
                s.mc_pixels = rng.gen_range(0u64..1 << 40);
                s.intra_pixels = rng.gen_range(0u64..1 << 40);
                s.temporal_filter_pixels = rng.gen_range(0u64..1 << 40);
                s.deblock_pixels = rng.gen_range(0u64..1 << 40);
                s.bits = rng.gen_range(0u64..1 << 40);
                s.intra_blocks = rng.gen_range(0u64..1 << 32);
                s.inter_blocks = rng.gen_range(0u64..1 << 32);
                s.ref_bytes_read = rng.gen_range(0u64..1 << 40);
                s
            })
            .collect();
        let mut forward = CodingStats::new();
        for s in &parts {
            forward += *s;
        }
        // Fisher–Yates shuffle, then re-merge.
        for i in (1..parts.len()).rev() {
            parts.swap(i, rng.gen_range(0usize..i + 1));
        }
        let mut shuffled = CodingStats::new();
        for s in &parts {
            shuffled += *s;
        }
        assert_eq!(forward, shuffled);
    }
}

prop_cases! {
    /// Chunk-parallel encoding is pool-width invariant: for arbitrary
    /// content, chunk size, and clip length, every `VCU_THREADS`-style
    /// width in {1, 2, 3, 4, 8} produces a byte-identical container,
    /// identical merged stats and frame records, and a byte-identical
    /// telemetry snapshot. Widths exceed the chunk count on most cases
    /// (<= 6 chunks vs 8 lanes), so surplus workers must idle rather
    /// than perturb anything.
    #[cases(4)]
    fn parallel_encode_thread_invariant(rng) {
        let seed = rng.gen_range(0u64..1000);
        let frames = rng.gen_range(2usize..7);
        let chunk = rng.gen_range(1usize..4);
        let profile = if rng.gen_bool(0.5) { Profile::Vp9Sim } else { Profile::H264Sim };
        let qp = rng.gen_range(20u8..45);
        let video = SynthSpec::new(Resolution::R144, frames, ContentClass::ugc(), seed).generate();
        let base = EncoderConfig::const_qp(profile, Qp::new(qp));
        let seq_reg = vcu_telemetry::Registry::new();
        let seq = encode_parallel_traced(&base.with_threads(1), &video, chunk, &seq_reg)
            .expect("t1 encode");
        let seq_snap = seq_reg.snapshot_json(&[]);
        for threads in [2usize, 3, 4, 8] {
            let reg = vcu_telemetry::Registry::new();
            let par = encode_parallel_traced(&base.with_threads(threads), &video, chunk, &reg)
                .expect("parallel encode");
            assert_eq!(seq.bytes, par.bytes, "threads={threads} changed the bitstream");
            assert_eq!(seq.stats, par.stats, "threads={threads} changed merged stats");
            assert_eq!(seq.frames, par.frames, "threads={threads} changed frame records");
            assert_eq!(
                seq_snap,
                reg.snapshot_json(&[]),
                "threads={threads} changed the telemetry snapshot"
            );
        }
        // And the spliced stream actually decodes to every frame.
        assert_eq!(decode(&seq.bytes).expect("decode").video.frames.len(), frames);
    }
}

prop_cases! {
    /// The O(log n) availability index and the O(n) linear scan are the
    /// same scheduler: identical placements on identical request
    /// streams — including wrapping windows, starts past the fleet
    /// size, releases, and `set_accepting` churn. First-fit order is
    /// observable behaviour (black-holing and Fig. 6 depend on it), so
    /// nothing short of exact agreement is acceptable.
    #[cases(96)]
    fn placement_index_agrees_with_linear_oracle(rng) {
        let n = rng.gen_range(1usize..80);
        let kind = if rng.gen_bool(0.5) {
            SchedulerKind::MultiDim
        } else {
            SchedulerKind::SingleSlot { slots: rng.gen_range(1u32..4) }
        };
        let mut idx = Scheduler::with_placement(kind, n, PlacementMode::Indexed);
        let mut lin = Scheduler::with_placement(kind, n, PlacementMode::LinearScan);
        // (worker, demand) pairs currently placed, for exact releases.
        let mut live: Vec<(usize, ResourceDemand)> = Vec::new();
        for _ in 0..rng.gen_range(1usize..300) {
            match rng.gen_range(0u32..10) {
                0..=5 => {
                    let d = ResourceDemand {
                        millidecode: rng.gen_range(0u32..2_000),
                        milliencode: rng.gen_range(0u32..6_000),
                        dram_mib: rng.gen_range(0u32..4_000),
                        host_mcpu: rng.gen_range(0u32..3_000),
                    };
                    let start = rng.gen_range(0usize..3 * n);
                    let window = rng.gen_range(0usize..2 * n + 1);
                    let a = idx.place_from(d, start, window);
                    let b = lin.place_from(d, start, window);
                    assert_eq!(a, b, "placement diverged (n={n}, {kind:?})");
                    if let Some(w) = a {
                        live.push((w, d));
                    }
                }
                6..=7 => {
                    if !live.is_empty() {
                        let (w, d) = live.swap_remove(rng.gen_range(0usize..live.len()));
                        idx.release(w, d);
                        lin.release(w, d);
                    }
                }
                _ => {
                    let w = rng.gen_range(0usize..n);
                    let on = rng.gen_bool(0.5);
                    idx.set_accepting(w, on);
                    lin.set_accepting(w, on);
                }
            }
        }
        assert_eq!(idx.placements, lin.placements);
        assert_eq!(idx.rejections, lin.rejections);
        for w in 0..n {
            assert_eq!(idx.worker(w), lin.worker(w), "worker {w} state diverged");
        }
    }

    /// The two facts `ClusterSim`'s blocked-placement memo rests on,
    /// in both placement modes, over random place / release /
    /// `set_accepting` streams: (a) a demand rejected over the whole
    /// fleet stays rejected, from any start, until the capacity epoch
    /// moves — which only a release or a re-accept does; (b) in that
    /// state every demand at least as large in each dimension is
    /// rejected too.
    #[cases(96)]
    fn rejections_are_monotone_until_capacity_grows(rng) {
        for placement in [PlacementMode::Indexed, PlacementMode::LinearScan] {
            let n = rng.gen_range(1usize..10);
            let kind = if rng.gen_bool(0.7) {
                SchedulerKind::MultiDim
            } else {
                SchedulerKind::SingleSlot { slots: rng.gen_range(1u32..4) }
            };
            let mut s = Scheduler::with_placement(kind, n, placement);
            let mut live: Vec<(usize, ResourceDemand)> = Vec::new();
            // Demands rejected since the capacity epoch last moved.
            let mut rejected: Vec<ResourceDemand> = Vec::new();
            for _ in 0..rng.gen_range(1usize..300) {
                let epoch = s.capacity_epoch();
                match rng.gen_range(0u32..10) {
                    0..=6 => {
                        let mut d = ResourceDemand {
                            millidecode: rng.gen_range(0u32..2_000),
                            milliencode: rng.gen_range(0u32..6_000),
                            dram_mib: rng.gen_range(0u32..4_000),
                            host_mcpu: rng.gen_range(0u32..3_000),
                        };
                        if !rejected.is_empty() && rng.gen_bool(0.3) {
                            d = d.plus(rejected[rng.gen_range(0usize..rejected.len())]);
                        }
                        let covered = rejected.iter().any(|r| r.fits_in(d));
                        match s.place_from(d, rng.gen_range(0usize..3 * n), n) {
                            Some(w) => {
                                assert!(!covered, "{d:?} placed past a smaller rejection");
                                live.push((w, d));
                            }
                            None => rejected.push(d),
                        }
                        assert_eq!(s.capacity_epoch(), epoch, "asking frees nothing");
                    }
                    7 => {
                        if !live.is_empty() {
                            let (w, d) = live.swap_remove(rng.gen_range(0usize..live.len()));
                            s.release(w, d);
                            assert!(s.capacity_epoch() > epoch);
                        }
                    }
                    _ => {
                        let on = rng.gen_bool(0.5);
                        s.set_accepting(rng.gen_range(0usize..n), on);
                        assert_eq!(s.capacity_epoch() > epoch, on);
                    }
                }
                if s.capacity_epoch() != epoch {
                    rejected.clear();
                }
                for &r in &rejected {
                    let start = rng.gen_range(0usize..3 * n);
                    assert_eq!(s.probe_from(r, start, n), None, "{r:?} un-rejected itself");
                }
            }
        }
    }

    /// Release restores the exact pre-place scheduler state: place a
    /// job, release it, and every observable (per-worker availability,
    /// utilization aggregates, and the next placement decision) matches
    /// a scheduler that never saw the job.
    #[cases(96)]
    fn release_then_place_restores_state(rng) {
        let n = rng.gen_range(1usize..40);
        let kind = if rng.gen_bool(0.5) {
            SchedulerKind::MultiDim
        } else {
            SchedulerKind::SingleSlot { slots: rng.gen_range(1u32..4) }
        };
        let mode = if rng.gen_bool(0.5) {
            PlacementMode::Indexed
        } else {
            PlacementMode::LinearScan
        };
        let mut s = Scheduler::with_placement(kind, n, mode);
        // Random warm-up load that stays resident.
        let mut resident: Vec<(usize, ResourceDemand)> = Vec::new();
        for _ in 0..rng.gen_range(0usize..60) {
            let d = ResourceDemand {
                millidecode: rng.gen_range(0u32..1_500),
                milliencode: rng.gen_range(0u32..5_000),
                dram_mib: rng.gen_range(0u32..3_000),
                host_mcpu: rng.gen_range(0u32..2_500),
            };
            if let Some(w) = s.place_from(d, rng.gen_range(0usize..n), n) {
                resident.push((w, d));
            }
        }
        let before: Vec<_> = (0..n).map(|w| s.worker(w).clone()).collect();
        let enc_before = s.encode_utilization();
        let dec_before = s.decode_utilization();
        let extra = ResourceDemand {
            millidecode: rng.gen_range(1u32..2_000),
            milliencode: rng.gen_range(1u32..6_000),
            dram_mib: rng.gen_range(1u32..3_000),
            host_mcpu: rng.gen_range(1u32..2_500),
        };
        let start = rng.gen_range(0usize..n);
        if let Some(w) = s.place_from(extra, start, n) {
            s.release(w, extra);
            for (v, prev) in before.iter().enumerate() {
                assert_eq!(s.worker(v), prev, "worker {v} not restored");
            }
            assert_eq!(s.encode_utilization(), enc_before);
            assert_eq!(s.decode_utilization(), dec_before);
            // The restored state makes the identical decision again.
            assert_eq!(s.place_from(extra, start, n), Some(w));
        }
    }
}

// Fault-path properties: the failure-management machinery must keep
// the DES total (every job resolves), the backoff deterministic, and
// Critical work un-strandable while any healthy worker remains.
mod fault_paths {
    use vcu_chip::TranscodeJob;
    use vcu_cluster::{
        ClusterConfig, ClusterSim, DegradePolicy, FaultInjection, FaultKind, HealthPolicy, JobSpec,
        Priority, RetryPolicy, WatchdogPolicy,
    };
    use vcu_codec::Profile;
    use vcu_media::Resolution;
    use vcu_rng::prop_cases;

    fn random_fault_kind(rng: &mut vcu_rng::Rng) -> FaultKind {
        match rng.gen_range(0u32..8) {
            0 => FaultKind::SilentCorruption,
            1 => FaultKind::FirmwareHang,
            2 => FaultKind::SlowCore {
                factor_pct: rng.gen_range(200u32..3_000),
            },
            3 => FaultKind::EccStorm {
                correctable_per_tick: rng.gen_range(1u64..400),
            },
            4 => FaultKind::CrashLoop,
            5 => FaultKind::Dead,
            _ => FaultKind::Repair,
        }
    }

    fn random_jobs(rng: &mut vcu_rng::Rng, n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                arrival_s: rng.gen_range(0.0..60.0),
                job: TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
                priority: match i % 4 {
                    0 => Priority::Critical,
                    3 => Priority::Batch,
                    _ => Priority::Normal,
                },
                video_id: (i / 4) as u64,
            })
            .collect()
    }

    prop_cases! {
        /// Any random fault schedule — any mix of kinds, timings,
        /// repairs, and policy knobs — terminates with every job
        /// accounted for: completed + failed == submitted, and the
        /// failure sub-counters never exceed their parent.
        #[cases(48)]
        fn fault_schedules_always_terminate(rng) {
            let vcus = rng.gen_range(2usize..12);
            let n = rng.gen_range(10usize..80);
            let jobs = random_jobs(rng, n);
            let faults: Vec<FaultInjection> = (0..rng.gen_range(0usize..12))
                .map(|_| FaultInjection {
                    time_s: rng.gen_range(0.0..90.0),
                    worker: rng.gen_range(0usize..vcus),
                    kind: random_fault_kind(rng),
                })
                .collect();
            let cfg = ClusterConfig {
                vcus,
                detection_rate: rng.gen_range(0.0..1.0),
                retry: RetryPolicy {
                    base_s: rng.gen_range(0.0..5.0),
                    jitter_frac: rng.gen_range(0.0..0.3),
                },
                watchdog: WatchdogPolicy {
                    grace_s: rng.gen_range(1.0..30.0),
                    service_factor: rng.gen_range(2.0..8.0),
                },
                health: HealthPolicy {
                    max_recoveries: rng.gen_range(0u32..3),
                    golden_period_s: if rng.gen_bool(0.5) {
                        rng.gen_range(10.0..120.0)
                    } else {
                        0.0
                    },
                },
                degrade: DegradePolicy {
                    enabled: rng.gen_bool(0.5),
                    ..DegradePolicy::default()
                },
                seed: rng.next_u64(),
                ..ClusterConfig::default()
            };
            let r = ClusterSim::new(cfg, jobs, faults).run();
            assert_eq!(
                r.completed + r.failed,
                n as u64,
                "jobs must all resolve (completed {} + failed {})",
                r.completed,
                r.failed
            );
            assert!(r.stranded <= r.failed, "stranded is a subset of failed");
            assert!(r.shed <= r.failed, "shed is a subset of failed");
        }

        /// Backoff delays are a pure function of (policy, attempt,
        /// RNG state): same seed gives the identical sequence, and
        /// every delay is bounded by base * BACKOFF_FACTOR^(attempt-1) *
        /// (1 + jitter_frac).
        #[cases(64)]
        fn backoff_is_deterministic_and_bounded(rng) {
            let policy = RetryPolicy {
                base_s: rng.gen_range(0.1..10.0),
                jitter_frac: rng.gen_range(0.0..0.5),
            };
            let seed = rng.next_u64();
            let mut a = vcu_rng::Rng::seed_from_u64(seed);
            let mut b = vcu_rng::Rng::seed_from_u64(seed);
            for attempt in 1..=vcu_cluster::MAX_ATTEMPTS {
                let da = policy.delay_s(attempt, &mut a);
                let db = policy.delay_s(attempt, &mut b);
                assert_eq!(da.to_bits(), db.to_bits(), "same-seed delays must match");
                let cap = policy.base_s
                    * vcu_cluster::BACKOFF_FACTOR.powi(attempt.saturating_sub(1) as i32)
                    * (1.0 + policy.jitter_frac);
                assert!(da >= 0.0 && da <= cap, "delay {da} exceeds cap {cap}");
            }
        }

        /// As long as one worker never faults, Critical jobs are never
        /// stranded: strand-failure requires the whole fleet to be
        /// unusable with nothing pending that could revive it.
        #[cases(32)]
        fn critical_jobs_never_strand_while_a_healthy_worker_exists(rng) {
            let vcus = rng.gen_range(2usize..10);
            let n = rng.gen_range(8usize..40);
            let jobs: Vec<JobSpec> = (0..n)
                .map(|i| JobSpec {
                    arrival_s: rng.gen_range(0.0..40.0),
                    job: TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
                    priority: Priority::Critical,
                    video_id: i as u64,
                })
                .collect();
            // Fault every worker except worker 0, possibly repeatedly.
            let faults: Vec<FaultInjection> = (0..rng.gen_range(1usize..10))
                .map(|_| FaultInjection {
                    time_s: rng.gen_range(0.0..50.0),
                    worker: rng.gen_range(1usize..vcus),
                    kind: match rng.gen_range(0u32..3) {
                        0 => FaultKind::Dead,
                        1 => FaultKind::FirmwareHang,
                        _ => FaultKind::CrashLoop,
                    },
                })
                .collect();
            let cfg = ClusterConfig {
                vcus,
                retry: RetryPolicy {
                    base_s: 1.0,
                    ..RetryPolicy::default()
                },
                seed: rng.next_u64(),
                ..ClusterConfig::default()
            };
            let r = ClusterSim::new(cfg, jobs, faults).run();
            assert_eq!(r.completed + r.failed, n as u64);
            assert_eq!(
                r.stranded, 0,
                "worker 0 stays healthy, so no Critical job may strand"
            );
        }
    }
}

// Serving-path properties: the segment cache must behave like a
// capacity-bounded stack algorithm (never over-full, hits monotone in
// capacity, head segments scan-resistant), and the serving simulator
// must account for every session it admits.
mod serving {
    use vcu_rng::prop_cases;
    use vcu_serve::{seg_key, SegmentCache, ServeConfig, ServeSim};

    /// A random popularity-skewed access trace: (key, is_head) pairs
    /// where a small hot set dominates, as in real serving.
    fn random_trace(rng: &mut vcu_rng::Rng, len: usize) -> Vec<(u64, bool)> {
        let hot = rng.gen_range(4u32..32);
        let cold = rng.gen_range(64u32..512);
        (0..len)
            .map(|_| {
                if rng.gen_bool(0.6) {
                    (seg_key(rng.gen_range(0u32..hot), 0), true)
                } else {
                    (seg_key(1_000 + rng.gen_range(0u32..cold), 0), false)
                }
            })
            .collect()
    }

    fn replay(cache: &mut SegmentCache, trace: &[(u64, bool)]) {
        for &(key, head) in trace {
            if !cache.lookup(key) {
                cache.insert(key, head);
            }
        }
    }

    prop_cases! {
        /// The cache never holds more than its capacity (globally or in
        /// the protected tier), whatever the trace.
        #[cases(64)]
        fn cache_never_exceeds_capacity(rng) {
            let capacity = rng.gen_range(1usize..200);
            let frac = rng.f64();
            let trace = random_trace(rng, 600);
            let mut cache = SegmentCache::new(capacity, frac);
            for &(key, head) in &trace {
                if !cache.lookup(key) {
                    cache.insert(key, head);
                }
                assert!(cache.len() <= capacity);
                assert!(cache.protected_len() <= cache.protected_capacity());
            }
        }

        /// Hit count is monotone in capacity for the identical trace:
        /// the two-tier LRU is a stack algorithm, so growing either
        /// tier can only add hits.
        #[cases(48)]
        fn cache_hits_monotone_in_capacity(rng) {
            let small = rng.gen_range(1usize..100);
            let big = small + rng.gen_range(1usize..150);
            let frac = rng.f64();
            let trace = random_trace(rng, 800);
            let mut a = SegmentCache::new(small, frac);
            let mut b = SegmentCache::new(big, frac);
            replay(&mut a, &trace);
            replay(&mut b, &trace);
            assert!(
                b.hits() >= a.hits(),
                "capacity {} hit {} times but capacity {} only {}",
                small, a.hits(), big, b.hits()
            );
        }

        /// A scan of one-shot cold keys cannot evict the protected
        /// head set.
        #[cases(48)]
        fn protected_tier_survives_scan(rng) {
            let capacity = rng.gen_range(8usize..128);
            let mut cache = SegmentCache::new(capacity, 0.5);
            let heads: Vec<u64> = (0..cache.protected_capacity() as u32)
                .map(|v| seg_key(v, 0))
                .collect();
            for &k in &heads {
                cache.insert(k, true);
            }
            let scan_len = rng.gen_range(100usize..1_000);
            for i in 0..scan_len {
                cache.insert(seg_key(10_000 + i as u32, 0), false);
            }
            for &k in &heads {
                assert!(
                    cache.contains(k),
                    "scan of {scan_len} cold keys evicted a protected head segment"
                );
            }
        }

        /// Every session the serving sim admits ends exactly once:
        /// arrivals = admitted + shed and admitted = completed +
        /// aborted, for random populations, fleets, and cache sizes.
        /// (The sim also asserts internally that no session or
        /// transcode is still live at drain.)
        #[cases(12)]
        fn serving_sessions_all_account(rng) {
            let report = ServeSim::new(ServeConfig {
                viewers: rng.gen_range(50usize..600),
                horizon_s: rng.gen_range(10.0..40.0),
                catalog_videos: rng.gen_range(20usize..400),
                cache_segments: rng.gen_range(16usize..1_024),
                vcus: rng.gen_range(2usize..32),
                seed: rng.next_u64(),
                ..ServeConfig::default()
            })
            .run();
            assert_eq!(report.arrivals, report.admitted + report.shed_sessions);
            assert_eq!(
                report.admitted,
                report.completed_sessions + report.aborted_sessions
            );
            // Every completed session delivered all its segments, and
            // deliveries only go to admitted sessions.
            assert!(report.segments_served >= report.completed_sessions);
            // Misses can coalesce onto an in-flight transcode, so
            // misses bound transcodes from above.
            assert!(report.cache_misses >= report.transcodes);
        }
    }
}

// Planet-scale properties: splitting a region into cells must be a
// pure implementation detail. One cell behind the region merge is the
// same machine as a plain `ClusterSim`.
mod region_scale {
    use vcu_cluster::{cell_cluster_config, ClusterSim, JobSpec, Priority};
    use vcu_regions::{region_job, RegionReport, RegionSim, RegionSpec};
    use vcu_rng::{mix64, prop_cases, Rng};
    use vcu_workloads::DiurnalCurve;

    const CHUNK_S: f64 = 6.0;
    const HORIZON_S: f64 = 90.0;
    const EPOCH_S: f64 = 30.0;

    /// Drives a region the way the planet does — epoch-windowed
    /// injection from a compressed diurnal curve, then drain — and
    /// returns the report plus the full arrival stream it offered.
    fn drive_region(
        seed: u64,
        cells: usize,
        vcus_per_cell: usize,
        mean_rate_per_s: f64,
    ) -> (RegionReport, Vec<f64>) {
        let spec = RegionSpec {
            name: "prop".to_owned(),
            cells,
            vcus_per_cell,
            peak_hour: 6.0,
            mean_rate_per_s,
            amplitude: 0.8,
        };
        let curve = DiurnalCurve {
            mean_rate_per_s,
            amplitude: spec.amplitude,
            peak_hour: spec.peak_hour,
            period_s: HORIZON_S,
        };
        let mut arrival_rng = Rng::seed_from_u64(mix64(seed, 0xA1));
        let mut region = RegionSim::new(spec, seed, CHUNK_S, Vec::new());
        let mut offered = Vec::new();
        let mut t = 0.0;
        while t < HORIZON_S {
            let t1 = (t + EPOCH_S).min(HORIZON_S);
            let window = curve.arrivals_in(t, t1, &mut arrival_rng);
            region.inject_epoch(&window, false);
            offered.extend(window);
            region.advance_to(t1);
            t = t1;
        }
        let mut deadline = HORIZON_S;
        while region.busy() {
            deadline += HORIZON_S;
            assert!(
                deadline < HORIZON_S * 50.0,
                "region failed to drain (seed {seed})"
            );
            region.advance_to(deadline);
        }
        (region.finish(), offered)
    }

    prop_cases! {
        /// A one-cell region behind the merge resolves exactly like a
        /// plain `ClusterSim` handed the same jobs in one batch — same
        /// counters, bit-identical output accounting. Open-world
        /// injection and the region merge must add nothing and lose
        /// nothing.
        #[cases(6)]
        fn one_cell_region_matches_plain_cluster_sim(rng) {
            let seed = rng.gen_range(0u64..1 << 48);
            let vcus = rng.gen_range(3usize..9);
            let rate = rng.gen_range(0.3..1.2);
            let (region, offered) = drive_region(seed, 1, vcus, rate);

            let jobs: Vec<JobSpec> = offered
                .iter()
                .enumerate()
                .map(|(i, &arrival_s)| JobSpec {
                    arrival_s,
                    job: region_job(CHUNK_S),
                    priority: match i % 4 {
                        0 => Priority::Critical,
                        3 => Priority::Batch,
                        _ => Priority::Normal,
                    },
                    video_id: (i / 4) as u64,
                })
                .collect();
            let plain =
                ClusterSim::new(cell_cluster_config(vcus, mix64(seed, 0)), jobs, Vec::new()).run();

            assert_eq!(region.jobs, offered.len() as u64);
            assert_eq!(
                (region.completed, region.failed, region.shed, region.stranded),
                (plain.completed, plain.failed, plain.shed, plain.stranded),
                "seed {seed}: one-cell region diverged from plain ClusterSim"
            );
            assert_eq!(region.black_holed, plain.escaped_corruptions);
            assert_eq!(region.watchdog_fired, plain.watchdog_fired);
            assert_eq!(region.repairs, plain.repairs);
            assert_eq!(
                region.total_output_mpix.to_bits(),
                plain.total_output_mpix.to_bits(),
                "output accounting must be bit-identical"
            );
            assert_eq!(region.p99_wait_s.to_bits(), plain.p99_wait_s.to_bits());
            // mean_wait rides a completion-weighted average (x*c/c), so
            // allow one rounding step rather than bit equality.
            assert!(
                (region.mean_wait_s - plain.mean_wait_s).abs()
                    <= plain.mean_wait_s.abs() * 1e-12,
                "mean wait drifted: {} vs {}",
                region.mean_wait_s,
                plain.mean_wait_s
            );
            assert_eq!(region.merged_resolutions, plain.completed + plain.failed);
        }
    }
}

// Pareto-frontier properties: the design-space sweep's dominance
// relation and frontier extraction must behave like the textbook
// definitions on arbitrary point sets, because the committed
// `dse_frontier.json` flags are re-derived by an independent dominance
// check in `vcu_bench::gates::dse` — any disagreement between
// implementations fails CI.
mod dse_pareto {
    use vcu_dse::{dominates, frontier_flags};
    use vcu_rng::{prop_cases, Rng};

    fn random_points(rng: &mut Rng, n: usize) -> Vec<[f64; 4]> {
        (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..500.0),
                    rng.gen_range(0.0..1.0),
                ]
            })
            .collect()
    }

    prop_cases! {
        /// Frontier points are mutually non-dominating, and every
        /// point left off the frontier is dominated by at least one
        /// point on it.
        #[cases(64)]
        fn frontier_is_exactly_the_nondominated_set(rng) {
            let n = rng.gen_range(1usize..60);
            let pts = random_points(rng, n);
            let flags = frontier_flags(&pts);
            assert!(flags.iter().any(|&f| f), "frontier can never be empty");
            for (i, &on_i) in flags.iter().enumerate() {
                if on_i {
                    for (j, &on_j) in flags.iter().enumerate() {
                        if on_j && i != j {
                            assert!(
                                !dominates(&pts[i], &pts[j]),
                                "frontier point {i} dominates frontier point {j}"
                            );
                        }
                    }
                } else {
                    assert!(
                        flags
                            .iter()
                            .enumerate()
                            .any(|(j, &on_j)| on_j && dominates(&pts[j], &pts[i])),
                        "off-frontier point {i} dominated by no frontier point"
                    );
                }
            }
        }

        /// Appending a candidate that some existing point dominates
        /// never changes any existing flag, and the newcomer lands off
        /// the frontier.
        #[cases(64)]
        fn dominated_newcomer_changes_nothing(rng) {
            let n = rng.gen_range(1usize..40);
            let pts = random_points(rng, n);
            let before = frontier_flags(&pts);
            // Clone an arbitrary point and push every coordinate down:
            // strictly dominated by its parent, so by transitivity it
            // threatens no one.
            let parent = pts[rng.gen_range(0usize..pts.len())];
            let weaker = parent.map(|x| x * rng.gen_range(0.1..0.9));
            assert!(dominates(&parent, &weaker));
            let mut grown = pts.clone();
            grown.push(weaker);
            let after = frontier_flags(&grown);
            assert_eq!(&after[..pts.len()], &before[..]);
            assert!(!after[pts.len()], "dominated newcomer on frontier");
        }

        /// The frontier is a property of the set, not the enumeration
        /// order: any rotation of the candidate list yields the same
        /// rotated flags.
        #[cases(64)]
        fn frontier_is_order_invariant(rng) {
            let n = rng.gen_range(2usize..40);
            let pts = random_points(rng, n);
            let flags = frontier_flags(&pts);
            let cut = rng.gen_range(1usize..pts.len());
            let rotated: Vec<[f64; 4]> =
                pts[cut..].iter().chain(&pts[..cut]).copied().collect();
            let rotated_flags = frontier_flags(&rotated);
            let expect: Vec<bool> =
                flags[cut..].iter().chain(&flags[..cut]).copied().collect();
            assert_eq!(rotated_flags, expect, "rotation by {cut} changed the frontier");
        }

        /// Duplicate points are both kept: a tie is not a domination,
        /// so exact copies of a frontier point all stay on it.
        #[cases(32)]
        fn ties_are_kept(rng) {
            let n = rng.gen_range(1usize..30);
            let pts = random_points(rng, n);
            let flags = frontier_flags(&pts);
            let pick = rng.gen_range(0usize..pts.len());
            let mut grown = pts.clone();
            grown.push(pts[pick]);
            let after = frontier_flags(&grown);
            assert_eq!(
                after[pts.len()], flags[pick],
                "an exact duplicate must share its twin's frontier status"
            );
            assert_eq!(&after[..pts.len()], &flags[..]);
        }
    }
}
