//! Accounting: every counter, the wait distribution, the blast-radius
//! slots and pair count, the periodic samples, and the final
//! [`ClusterReport`].
//!
//! [`Tally`] accumulates directly in report shape, so finishing a run
//! fills in the derived fields instead of copying counters one by one.
//! It never touches telemetry: methods that count something the
//! telemetry also counts return the counter's name, so the report and
//! the registry cannot disagree.

use super::AttemptMode;
use std::collections::HashMap;

/// One metrics sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Sample time (seconds).
    pub time_s: f64,
    /// Cluster-wide encoder millicore utilization in 0..=1.
    pub encode_util: f64,
    /// Cluster-wide hardware-decoder millicore utilization in 0..=1.
    pub decode_util: f64,
    /// Output Mpix/s completed since the previous sample, per VCU.
    pub mpix_s_per_vcu: f64,
    /// Jobs waiting in queue.
    pub queued: usize,
    /// Jobs waiting per priority class, indexed by
    /// [`Priority::index`](super::Priority::index) — read straight off
    /// the per-class queues in O(1), so sampling cost is independent of
    /// backlog depth.
    pub queued_per_pool: [usize; 3],
    /// Current rung of the graceful-degradation ladder (0 = full HW).
    pub degrade_level: u8,
    /// Workers currently usable (active management state and a chip
    /// that accepts work).
    pub usable_workers: usize,
}

/// Results of a simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterReport {
    /// Periodic samples.
    pub samples: Vec<Sample>,
    /// Completed jobs.
    pub completed: u64,
    /// Permanently failed jobs.
    pub failed: u64,
    /// Jobs failed because no usable worker remained to ever run them
    /// (a subset of `failed`; see the stranded-jobs policy in
    /// DESIGN.md).
    pub stranded: u64,
    /// Total retries performed.
    pub retries: u64,
    /// Corrupted chunks that escaped detection.
    pub escaped_corruptions: u64,
    /// Corrupted chunks caught by integrity checks.
    pub caught_corruptions: u64,
    /// Jobs whose successful attempt used software decode.
    pub sw_decoded_jobs: u64,
    /// Jobs whose successful attempt used software *encode* (ladder
    /// level ≥ 1).
    pub sw_encoded_jobs: u64,
    /// Jobs whose successful attempt ran the full software fallback.
    pub sw_full_jobs: u64,
    /// Batch jobs shed by the degradation ladder's last rung (a subset
    /// of `failed`).
    pub shed: u64,
    /// Watchdog deadlines that fired on a live attempt.
    pub watchdog_fired: u64,
    /// Attempts aborted by crash-looping firmware.
    pub crash_aborts: u64,
    /// Field repairs applied.
    pub repairs: u64,
    /// Workers in quarantine at the end of the run.
    pub quarantined_workers: u64,
    /// p99 of the queueing delay underlying `mean_wait_s` (seconds).
    pub p99_wait_s: f64,
    /// Fraction of samples spent at each degradation-ladder rung.
    pub degrade_time_frac: [f64; 4],
    /// Mean number of distinct VCUs that touched each video's chunks —
    /// the §4.4 blast-radius metric consistent hashing shrinks.
    pub mean_vcus_per_video: f64,
    /// Per-worker count of job attempts processed (black-holing shows
    /// up as a skewed distribution).
    pub attempts_per_worker: Vec<u64>,
    /// Mean queueing delay (seconds) from arrival to *first*
    /// placement, counted exactly once per placed job — retries do not
    /// re-enter the mean, and jobs that were never placed (stranded)
    /// are excluded.
    pub mean_wait_s: f64,
    /// Total output Mpix completed.
    pub total_output_mpix: f64,
    /// Wall-clock length of the simulation.
    pub horizon_s: f64,
}

impl ClusterReport {
    /// Mean per-VCU throughput over the run, Mpix/s.
    pub fn mean_mpix_s_per_vcu(&self, vcus: usize) -> f64 {
        if self.horizon_s <= 0.0 {
            return 0.0;
        }
        self.total_output_mpix / self.horizon_s / vcus as f64
    }

    /// (completed − escaped-corrupt) / `offered`: the fraction of the
    /// offered work that came back *and was correct*.
    pub fn goodput_frac(&self, offered: u64) -> f64 {
        self.completed.saturating_sub(self.escaped_corruptions) as f64 / offered.max(1) as f64
    }
}

/// Something the run counts once per occurrence, in the report and —
/// under the name [`Tally::count`] returns — in telemetry.
#[derive(Debug, Clone, Copy)]
pub(super) enum Incident {
    Retry,
    CorruptionCaught,
    WatchdogFired,
    CrashAbort,
    Repair,
    Shed,
}

/// Running accounts of one simulation.
#[derive(Debug, Default)]
pub(super) struct Tally {
    /// Counters, samples and per-worker attempts live here from the
    /// start; [`Tally::into_report`] fills in the derived fields.
    report: ClusterReport,
    /// Output Mpix completed since the last sample.
    window_mpix: f64,
    /// Every first-placement wait, in placement order, and their sum
    /// in that order (the mean must not depend on the p99 sort).
    waits: Vec<f64>,
    wait_sum: f64,
    /// Sim time of the most recent job resolution (horizon input).
    last_resolution_s: f64,
    /// The dense slot [`Tally::submitted`] gave each video id.
    video_slots: HashMap<u64, u32>,
    /// Per video slot, the distinct VCUs that touched it (blast
    /// radius), sorted.
    touched: Vec<Vec<u32>>,
    /// Distinct (video, VCU) pairs: the sum of `touched`'s lengths,
    /// kept so samples can expose the mean as a time series in O(1).
    pairs: u64,
}

impl Tally {
    /// Accounts for `workers` workers.
    pub(super) fn new(workers: usize) -> Self {
        assert!(
            u32::try_from(workers).is_ok(),
            "a fleet holds at most u32::MAX workers"
        );
        Tally {
            report: ClusterReport {
                attempts_per_worker: vec![0; workers],
                ..ClusterReport::default()
            },
            ..Tally::default()
        }
    }

    /// A chunk of `video` was submitted; returns the video's slot, the
    /// handle [`Tally::placed`] takes, so the id is hashed once per job
    /// and never per placement. Every submitted video participates in
    /// the blast-radius mean, even if none of its chunks ever reach a
    /// VCU.
    pub(super) fn submitted(&mut self, video: u64) -> u32 {
        *self.video_slots.entry(video).or_insert_with(|| {
            let slot =
                u32::try_from(self.touched.len()).expect("a run holds at most u32::MAX videos");
            self.touched.push(Vec::new());
            slot
        })
    }

    /// An attempt of a chunk of the video in `slot` was placed on
    /// worker `w`; `wait_s` is the arrival → placement delay on the
    /// job's *first* placement and `None` on retries, so queueing delay
    /// is counted once per job and retried jobs do not re-enter the
    /// mean with ever-growing waits.
    pub(super) fn placed(&mut self, w: usize, slot: u32, wait_s: Option<f64>) {
        self.report.attempts_per_worker[w] += 1;
        if let Some(wait) = wait_s {
            self.wait_sum += wait;
            self.waits.push(wait);
        }
        // `new` checked that every worker index fits.
        let w = w as u32;
        let touched = &mut self.touched[slot as usize];
        if let Err(at) = touched.binary_search(&w) {
            touched.insert(at, w);
            self.pairs += 1;
        }
    }

    /// Counts one incident; returns its telemetry counter name.
    pub(super) fn count(&mut self, incident: Incident) -> &'static str {
        let r = &mut self.report;
        let (n, name) = match incident {
            Incident::Retry => (&mut r.retries, "cluster.retries"),
            Incident::CorruptionCaught => (&mut r.caught_corruptions, "cluster.corruption.caught"),
            Incident::WatchdogFired => (&mut r.watchdog_fired, "cluster.watchdog.fired"),
            Incident::CrashAbort => (&mut r.crash_aborts, "cluster.crash_abort"),
            Incident::Repair => (&mut r.repairs, "cluster.repair"),
            Incident::Shed => (&mut r.shed, "cluster.jobs.shed"),
        };
        *n += 1;
        name
    }

    /// `n` queued jobs were failed because nothing could ever run them.
    pub(super) fn stranded(&mut self, n: u64) {
        self.report.stranded += n;
    }

    /// A job reached its terminal state at `now`: failed, or completed
    /// with `output_mpix` of output on codec path `mode` — the *final*
    /// attempt's, so a job retried across paths is counted once, under
    /// the path that succeeded. Returns the telemetry counter of a
    /// software path that carried a completion.
    pub(super) fn resolve(
        &mut self,
        now: f64,
        failed: bool,
        escaped: bool,
        mode: AttemptMode,
        output_mpix: f64,
    ) -> Option<&'static str> {
        let r = &mut self.report;
        self.last_resolution_s = self.last_resolution_s.max(now);
        if escaped {
            r.escaped_corruptions += 1;
        }
        if failed {
            r.failed += 1;
            return None;
        }
        r.completed += 1;
        self.window_mpix += output_mpix;
        r.total_output_mpix += output_mpix;
        let (n, name) = match mode {
            AttemptMode::Hw => return None,
            AttemptMode::SwDecode => (&mut r.sw_decoded_jobs, "cluster.sw_decode"),
            AttemptMode::SwEncode => (&mut r.sw_encoded_jobs, "cluster.sw_encode"),
            AttemptMode::SwFull => (&mut r.sw_full_jobs, "cluster.sw_full"),
        };
        *n += 1;
        Some(name)
    }

    /// Jobs resolved so far (completed + failed).
    pub(super) fn resolved(&self) -> u64 {
        self.report.completed + self.report.failed
    }

    /// Output Mpix completed since the previous call.
    pub(super) fn take_window_mpix(&mut self) -> f64 {
        std::mem::take(&mut self.window_mpix)
    }

    pub(super) fn sample(&mut self, s: Sample) {
        self.report.samples.push(s);
    }

    /// Mean number of distinct VCUs that touched each video's chunks so
    /// far (§4.4 blast radius).
    pub(super) fn mean_blast_radius(&self) -> f64 {
        if self.touched.is_empty() {
            return 0.0;
        }
        self.pairs as f64 / self.touched.len() as f64
    }

    /// Closes the accounts. The quarantine census comes from the fleet,
    /// which owns it.
    pub(super) fn into_report(mut self, quarantined_workers: u64) -> ClusterReport {
        let mean_vcus_per_video = self.mean_blast_radius();
        let samples = &self.report.samples;
        let last_sample_s = samples.last().map_or(0.0, |s| s.time_s);
        // Each sample records the rung the ladder stood on.
        let mut per_rung = [0u64; 4];
        for s in samples {
            per_rung[s.degrade_level as usize] += 1;
        }
        let degrade_time_frac = per_rung.map(|n| n as f64 / samples.len().max(1) as f64);
        let placed = self.waits.len();
        self.waits.sort_by(f64::total_cmp);
        ClusterReport {
            horizon_s: last_sample_s.max(self.last_resolution_s),
            mean_vcus_per_video,
            quarantined_workers,
            degrade_time_frac,
            mean_wait_s: if placed == 0 {
                0.0
            } else {
                self.wait_sum / placed as f64
            },
            p99_wait_s: if placed == 0 {
                0.0
            } else {
                let rank = ((placed as f64 * 0.99).ceil() as usize).clamp(1, placed);
                self.waits[rank - 1]
            },
            ..self.report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_placement_wait_is_counted_once_per_job() {
        let mut t = Tally::new(2);
        let video = t.submitted(7);
        t.placed(0, video, Some(3.0));
        // The retry lands elsewhere, later: no second wait.
        t.placed(1, video, None);
        t.placed(1, video, None);
        let r = t.into_report(0);
        assert_eq!(r.mean_wait_s, 3.0);
        assert_eq!(r.p99_wait_s, 3.0);
        assert_eq!(r.attempts_per_worker, [1, 2]);
        assert_eq!(r.mean_vcus_per_video, 2.0);
    }

    #[test]
    fn never_placed_jobs_contribute_no_wait_but_count_in_blast_radius() {
        let mut t = Tally::new(1);
        let placed = t.submitted(1);
        assert_eq!(t.submitted(2), t.submitted(2));
        t.placed(0, placed, Some(0.0));
        assert_eq!(t.mean_blast_radius(), 0.5);
        let empty = Tally::new(1).into_report(0);
        assert_eq!((empty.mean_wait_s, empty.p99_wait_s), (0.0, 0.0));
        assert_eq!(empty.mean_vcus_per_video, 0.0);
    }

    #[test]
    fn codec_path_tallies_follow_the_final_attempts_mode() {
        let mut t = Tally::new(1);
        // The caller passes the mode of the attempt that resolved the
        // job; earlier attempts' modes never reach the tally.
        assert_eq!(t.resolve(1.0, false, false, AttemptMode::Hw, 2.0), None);
        assert_eq!(
            t.resolve(2.0, false, false, AttemptMode::SwDecode, 2.0),
            Some("cluster.sw_decode")
        );
        assert_eq!(
            t.resolve(3.0, false, true, AttemptMode::SwEncode, 2.0),
            Some("cluster.sw_encode")
        );
        assert_eq!(
            t.resolve(4.0, false, false, AttemptMode::SwFull, 2.0),
            Some("cluster.sw_full")
        );
        // A failed job counts under no codec path and adds no output.
        assert_eq!(t.resolve(9.0, true, false, AttemptMode::SwFull, 2.0), None);
        assert_eq!(t.resolved(), 5);
        assert_eq!(t.take_window_mpix(), 8.0);
        assert_eq!(t.take_window_mpix(), 0.0);
        let r = t.into_report(0);
        assert_eq!((r.completed, r.failed, r.escaped_corruptions), (4, 1, 1));
        assert_eq!(
            (r.sw_decoded_jobs, r.sw_encoded_jobs, r.sw_full_jobs),
            (1, 1, 1)
        );
        assert_eq!(r.total_output_mpix, 8.0);
        assert_eq!(r.horizon_s, 9.0, "the last resolution ends the run");
    }

    #[test]
    fn p99_is_the_ceil_rank_order_statistic() {
        let p99_of = |n: usize| {
            let mut t = Tally::new(1);
            let video = t.submitted(0);
            // Placed in descending order: the percentile sorts, the
            // mean does not care.
            for i in (1..=n).rev() {
                t.placed(0, video, Some(i as f64));
            }
            t.into_report(0).p99_wait_s
        };
        // rank = ceil(0.99 n), 1-based, clamped to [1, n].
        assert_eq!(p99_of(1), 1.0);
        assert_eq!(p99_of(100), 99.0);
        assert_eq!(p99_of(101), 100.0);
        assert_eq!(p99_of(200), 198.0);
    }

    #[test]
    fn incidents_land_in_their_report_field_and_name_their_counter() {
        let mut t = Tally::new(1);
        let names = [
            Incident::Retry,
            Incident::Retry,
            Incident::CorruptionCaught,
            Incident::WatchdogFired,
            Incident::CrashAbort,
            Incident::Repair,
            Incident::Shed,
        ]
        .map(|i| t.count(i));
        assert_eq!(
            names,
            [
                "cluster.retries",
                "cluster.retries",
                "cluster.corruption.caught",
                "cluster.watchdog.fired",
                "cluster.crash_abort",
                "cluster.repair",
                "cluster.jobs.shed",
            ]
        );
        t.stranded(4);
        t.sample(Sample {
            time_s: 30.0,
            encode_util: 0.0,
            decode_util: 0.0,
            mpix_s_per_vcu: 0.0,
            queued: 0,
            queued_per_pool: [0; 3],
            degrade_level: 0,
            usable_workers: 1,
        });
        let r = t.into_report(3);
        assert_eq!(
            (r.retries, r.caught_corruptions, r.watchdog_fired),
            (2, 1, 1)
        );
        assert_eq!(
            (r.crash_aborts, r.repairs, r.shed, r.stranded),
            (1, 1, 1, 4)
        );
        assert_eq!(r.quarantined_workers, 3);
        assert_eq!(r.degrade_time_frac, [1.0, 0.0, 0.0, 0.0]);
        assert_eq!(r.horizon_s, 30.0, "the last sample ends an idle run");
    }

    #[test]
    fn rung_time_fractions_partition_the_samples() {
        let mut t = Tally::new(1);
        for (i, degrade_level) in [0, 1, 1, 3].into_iter().enumerate() {
            t.sample(Sample {
                time_s: i as f64,
                encode_util: 0.0,
                decode_util: 0.0,
                mpix_s_per_vcu: 0.0,
                queued: 0,
                queued_per_pool: [0; 3],
                degrade_level,
                usable_workers: 1,
            });
        }
        let r = t.into_report(0);
        assert_eq!(r.degrade_time_frac, [0.25, 0.5, 0.0, 0.25]);
        // No samples, no fractions (and no 0/0).
        let empty = Tally::new(1).into_report(0);
        assert_eq!(empty.degrade_time_frac, [0.0; 4]);
    }

    vcu_rng::prop_cases! {
        /// The slots and the pair count give the mean the sets gave:
        /// over random streams of submissions and placements — videos
        /// never placed, workers repeated, videos first seen only after
        /// placements began, as `inject_job` submits them — the bits of
        /// `mean_blast_radius()` are those of the mean set size in a
        /// `BTreeMap<u64, BTreeSet<usize>>`, summed as the old code did.
        #[cases(128)]
        fn blast_radius_mean_matches_a_set_per_video(rng) {
            use std::collections::{BTreeMap, BTreeSet};
            let workers = rng.gen_range(1usize..=80);
            let ids = rng.gen_range(1u64..=40);
            let mut t = Tally::new(workers);
            let mut model: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
            let mut slots: Vec<(u64, u32)> = Vec::new();
            for _ in 0..rng.gen_range(0usize..400) {
                if slots.is_empty() || rng.gen_bool(0.3) {
                    // Sparse ids: slots are dense, ids are not.
                    let video = rng.gen_range(0..ids).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    slots.push((video, t.submitted(video)));
                    model.entry(video).or_default();
                } else {
                    let (video, slot) = slots[rng.gen_range(0usize..slots.len())];
                    let w = rng.gen_range(0usize..workers);
                    t.placed(w, slot, None);
                    model.get_mut(&video).expect("submitted").insert(w);
                }
                let sizes = model.values().map(|s| s.len() as f64);
                let expected = sizes.sum::<f64>() / model.len() as f64;
                assert_eq!(t.mean_blast_radius().to_bits(), expected.to_bits());
            }
        }
    }
}
