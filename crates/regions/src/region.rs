//! One region: N open-world cluster cells behind one deterministic
//! merge.
//!
//! A region's fleet is split into cells (one `ClusterSim` each, so each
//! cell owns its own DES heap instead of one planet-wide heap). Cells
//! advance independently — every cell of every region as one task of a
//! single `vcu-exec` batch per epoch (`advance_regions`) — and their
//! job resolutions are merged back into one region timeline by
//! `merge_batch`: a stable sort by time of every resolution, pushed in
//! cell-index order. That is the `(time, seq)` order of one event queue
//! that takes every push before any pop, and the planet-scale
//! determinism tests pin it through the merge digest.

use vcu_chip::TranscodeJob;
use vcu_cluster::{
    cell_cluster_config, ClusterReport, ClusterSim, FaultInjection, JobResolution, JobSpec,
    Priority,
};
use vcu_codec::Profile;
use vcu_media::Resolution;
use vcu_rng::mix64;

/// Static description of one region.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Region name (diagnostics and JSON only).
    pub name: String,
    /// Cluster cells in the region.
    pub cells: usize,
    /// Fleet size per cell.
    pub vcus_per_cell: usize,
    /// Hour of peak demand on the sim clock, `[0, 24)` — regions in
    /// different timezones peak at different sim hours.
    pub peak_hour: f64,
    /// Mean offered load over a full diurnal period, jobs/second
    /// (before the planet-level traffic scale).
    pub mean_rate_per_s: f64,
    /// Diurnal swing in `[0, 1]`.
    pub amplitude: f64,
}

impl RegionSpec {
    /// Total VCUs in the region.
    pub fn vcus(&self) -> usize {
        self.cells * self.vcus_per_cell
    }
}

/// The uniform planet-campaign chunk: 1080p30 VP9 MOT like the fault
/// campaign, but `chunk_s` seconds long — region campaigns use long
/// chunks so a 100k-VCU planet stays at ~1M jobs instead of ~50M.
pub fn region_job(chunk_s: f64) -> TranscodeJob {
    TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, chunk_s)
}

/// Aggregated outcome of one region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Region name.
    pub name: String,
    /// Total VCUs.
    pub vcus: u64,
    /// Jobs injected into this region's cells (including overflow
    /// routed in from other regions).
    pub jobs: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs permanently failed (shed and stranded included).
    pub failed: u64,
    /// Batch jobs shed by the degradation ladder.
    pub shed: u64,
    /// Jobs failed with no usable worker left.
    pub stranded: u64,
    /// Corrupted chunks that shipped undetected.
    pub black_holed: u64,
    /// (completed − black-holed) / jobs.
    pub goodput_frac: f64,
    /// Job-weighted mean of the cells' §4.4 blast radii (distinct
    /// VCUs per video).
    pub blast_radius: f64,
    /// Completion-weighted mean queueing wait, seconds.
    pub mean_wait_s: f64,
    /// Worst cell's p99 queueing wait, seconds.
    pub p99_wait_s: f64,
    /// Watchdog deadlines fired.
    pub watchdog_fired: u64,
    /// Field repairs applied (upgrade waves + domain outages).
    pub repairs: u64,
    /// Jobs this region handed to other regions (set by the planet).
    pub routed_out: u64,
    /// Jobs this region absorbed from other regions.
    pub routed_in: u64,
    /// Highest backlog-per-usable-worker pressure observed at any
    /// epoch boundary.
    pub peak_pressure: f64,
    /// Total delivered output, Mpix.
    pub total_output_mpix: f64,
    /// Resolutions that crossed the merge (== completed + failed).
    pub merged_resolutions: u64,
    /// Order-sensitive digest of the merged resolution timeline:
    /// identical iff the merged event order is identical.
    pub merge_digest: u64,
}

/// One cell and the arrivals staged for it since it last
/// advanced.
#[derive(Debug)]
struct Cell {
    sim: ClusterSim,
    /// In injection order; the cell's own thread injects them, just
    /// before it next runs.
    staged: Vec<JobSpec>,
}

/// Advances every cell of every region to sim time `t` as one
/// `vcu-exec` batch at `VCU_THREADS`, then merges each region's
/// resolutions, region by region. Cells come back in order, so the
/// outcome is thread-invariant. A cell first injects what was staged
/// for it, in staging order: the calls it sees are the ones a serial
/// injection would have made, off the submitting thread.
pub(crate) fn advance_regions(regions: &mut [RegionSim], t: f64) {
    let mut counts = Vec::with_capacity(regions.len());
    let mut tasks = Vec::new();
    for r in regions.iter_mut() {
        counts.push(r.cells.len());
        tasks.extend(r.cells.drain(..).map(|mut c| {
            move || {
                for spec in c.staged.drain(..) {
                    c.sim.inject_job(spec);
                }
                c.sim.run_until(t);
                c
            }
        }));
    }
    let mut cells = vcu_exec::pool()
        .run_batch(vcu_exec::env_threads(), tasks)
        .into_iter();
    for (r, n) in regions.iter_mut().zip(counts) {
        r.cells.extend(cells.by_ref().take(n));
        r.merge_resolutions();
    }
}

/// One merge step: puts `batch`, every resolution drained since the
/// last step in cell-index push order, into timeline order. The sort
/// is stable, so equal times keep push order: the `(time, seq)` order
/// an event queue gives when every push comes before every pop.
/// `merged_s` is the time of the last resolution merged, and moves to
/// this batch's last.
///
/// # Panics
///
/// Panics if a time is NaN or earlier than `merged_s`: either would
/// corrupt the merged order.
fn merge_batch(batch: &mut [(usize, JobResolution)], merged_s: &mut f64) {
    assert!(
        batch.iter().all(|(_, r)| !r.time_s.is_nan()),
        "resolution time is NaN"
    );
    batch.sort_by(|(_, a), (_, b)| a.time_s.total_cmp(&b.time_s));
    if let (Some((_, first)), Some((_, last))) = (batch.first(), batch.last()) {
        assert!(
            first.time_s >= *merged_s,
            "cannot merge into the past: {} < {merged_s}",
            first.time_s
        );
        *merged_s = last.time_s;
    }
}

/// One region at runtime: its cells plus the resolution merge.
#[derive(Debug)]
pub struct RegionSim {
    spec: RegionSpec,
    /// The chunk every arrival transcodes ([`region_job`]), built once
    /// and cloned per job.
    job: TranscodeJob,
    cells: Vec<Cell>,
    /// The `(cell, resolution)` batch being merged, reused across
    /// merges.
    batch: Vec<(usize, JobResolution)>,
    /// Time of the last resolution merged.
    merged_s: f64,
    merge_digest: u64,
    merged: u64,
    injected: u64,
    routed_in: u64,
    routed_out: u64,
    peak_pressure: f64,
}

impl RegionSim {
    /// Builds the region: cell `i` is an open-world [`ClusterSim`]
    /// seeded `mix64(seed, i)` under the fault-campaign cluster
    /// policies, with `faults_per_cell[i]` pre-scheduled (upgrade
    /// waves, domain outages).
    pub fn new(
        spec: RegionSpec,
        seed: u64,
        chunk_s: f64,
        mut faults_per_cell: Vec<Vec<FaultInjection>>,
    ) -> Self {
        assert!(spec.cells > 0, "a region needs at least one cell");
        assert!(spec.vcus_per_cell > 0, "a cell needs at least one VCU");
        faults_per_cell.resize(spec.cells, Vec::new());
        let cells = (0..spec.cells)
            .map(|i| {
                let cell_seed = mix64(seed, i as u64);
                let sim = ClusterSim::new(
                    cell_cluster_config(spec.vcus_per_cell, cell_seed),
                    Vec::new(),
                    std::mem::take(&mut faults_per_cell[i]),
                );
                Cell {
                    sim: sim.open_world(),
                    staged: Vec::new(),
                }
            })
            .collect();
        RegionSim {
            spec,
            job: region_job(chunk_s),
            cells,
            batch: Vec::new(),
            merged_s: 0.0,
            merge_digest: 0x9E37_79B9_7F4A_7C15,
            merged: 0,
            injected: 0,
            routed_in: 0,
            routed_out: 0,
            peak_pressure: 0.0,
        }
    }

    /// The static spec.
    pub fn spec(&self) -> &RegionSpec {
        &self.spec
    }

    /// Jobs injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Backlog-per-usable-worker pressure across the region — the
    /// admission signal the planet's overflow router reads at each
    /// epoch boundary.
    pub fn pressure(&self) -> f64 {
        let backlog: usize = self.cells.iter().map(|c| c.sim.backlog_jobs()).sum();
        let usable: usize = self.cells.iter().map(|c| c.sim.usable_worker_count()).sum();
        backlog as f64 / usable.max(1) as f64
    }

    /// Records an epoch-boundary pressure reading into the peak.
    pub(crate) fn note_pressure(&mut self, p: f64) {
        if p > self.peak_pressure {
            self.peak_pressure = p;
        }
    }

    /// Stages one epoch of arrivals (sorted, strictly after every
    /// cell's current clock) for the next [`RegionSim::advance_to`],
    /// where each cell injects its own. Jobs round-robin across cells on
    /// a global counter — the deterministic pool/cell sharding — with
    /// the fault-campaign priority mix (1 Critical : 2 Normal :
    /// 1 Batch) and four chunks per video. `routed` marks jobs
    /// absorbed from another region.
    pub fn inject_epoch(&mut self, arrivals: &[f64], routed: bool) {
        for &arrival_s in arrivals {
            let i = self.injected;
            let cell = (i % self.cells.len() as u64) as usize;
            self.cells[cell].staged.push(JobSpec {
                arrival_s,
                job: self.job.clone(),
                priority: match i % 4 {
                    0 => Priority::Critical,
                    3 => Priority::Batch,
                    _ => Priority::Normal,
                },
                video_id: i / 4,
            });
            self.injected += 1;
        }
        if routed {
            self.routed_in += arrivals.len() as u64;
        }
    }

    /// Records jobs handed away by the overflow router.
    pub(crate) fn note_routed_out(&mut self, n: u64) {
        self.routed_out += n;
    }

    /// Advances every cell to sim time `t`, then merges the
    /// resolutions that surfaced into the region timeline (see
    /// `advance_regions`).
    pub fn advance_to(&mut self, t: f64) {
        advance_regions(std::slice::from_mut(self), t);
    }

    /// Merges each cell's drained resolutions into the region
    /// timeline (pushed in cell-index order, then [`merge_batch`]) and
    /// folds them, in merged order, into the digest that pins it.
    fn merge_resolutions(&mut self) {
        for (cell, c) in self.cells.iter_mut().enumerate() {
            let drained = c.sim.drain_resolutions().into_iter();
            self.batch.extend(drained.map(|r| (cell, r)));
        }
        merge_batch(&mut self.batch, &mut self.merged_s);
        for (cell, r) in self.batch.drain(..) {
            self.merged += 1;
            self.merge_digest = mix64(
                self.merge_digest,
                r.time_s.to_bits()
                    ^ (r.job as u64).rotate_left(17)
                    ^ ((cell as u64) << 48)
                    ^ r.completed as u64,
            );
        }
    }

    /// True while any injected job is unresolved, staged ones included.
    pub fn busy(&self) -> bool {
        let busy = |c: &Cell| !c.staged.is_empty() || c.sim.unresolved_jobs() > 0;
        self.cells.iter().any(busy)
    }

    /// Finishes every cell and reduces the region. Call once the
    /// planet's drain loop reports no cell busy.
    pub fn finish(mut self) -> RegionReport {
        self.merge_resolutions();
        let reports: Vec<ClusterReport> = self.cells.drain(..).map(|c| c.sim.finish()).collect();
        let sum = |f: fn(&ClusterReport) -> u64| reports.iter().map(f).sum::<u64>();
        let completed = sum(|r| r.completed);
        let failed = sum(|r| r.failed);
        let black_holed = sum(|r| r.escaped_corruptions);
        let jobs = self.injected;
        let weighted = |num: &dyn Fn(&ClusterReport) -> f64,
                        den: &dyn Fn(&ClusterReport) -> f64| {
            let d: f64 = reports.iter().map(den).sum();
            if d > 0.0 {
                reports.iter().map(|r| num(r) * den(r)).sum::<f64>() / d
            } else {
                0.0
            }
        };
        RegionReport {
            name: self.spec.name.clone(),
            vcus: self.spec.vcus() as u64,
            jobs,
            completed,
            failed,
            shed: sum(|r| r.shed),
            stranded: sum(|r| r.stranded),
            black_holed,
            goodput_frac: completed.saturating_sub(black_holed) as f64 / jobs.max(1) as f64,
            blast_radius: weighted(&|r| r.mean_vcus_per_video, &|r| {
                (r.completed + r.failed) as f64
            }),
            mean_wait_s: weighted(&|r| r.mean_wait_s, &|r| r.completed as f64),
            p99_wait_s: reports.iter().map(|r| r.p99_wait_s).fold(0.0, f64::max),
            watchdog_fired: sum(|r| r.watchdog_fired),
            repairs: sum(|r| r.repairs),
            routed_out: self.routed_out,
            routed_in: self.routed_in,
            peak_pressure: self.peak_pressure,
            total_output_mpix: reports.iter().map(|r| r.total_output_mpix).sum(),
            merged_resolutions: self.merged,
            merge_digest: self.merge_digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcu_cluster::{EventQueue, FaultKind};

    /// Three 2-VCU cells, one of which hangs a core and repairs it,
    /// offered more than they carry.
    fn region() -> RegionSim {
        let spec = RegionSpec {
            name: "r".into(),
            cells: 3,
            vcus_per_cell: 2,
            peak_hour: 0.0,
            mean_rate_per_s: 0.0,
            amplitude: 0.0,
        };
        let fault = |time_s, kind| FaultInjection {
            time_s,
            worker: 1,
            kind,
        };
        let faults = vec![
            Vec::new(),
            vec![
                fault(12.0, FaultKind::FirmwareHang),
                fault(70.0, FaultKind::Repair),
            ],
        ];
        RegionSim::new(spec, 29, 10.0, faults)
    }

    /// Epoch `e`'s two injections, in the order the planet makes them
    /// when this region absorbs overflow: the routed tail of another
    /// region's epoch first, then its own arrivals, which start earlier.
    fn epoch(e: usize) -> (f64, Vec<f64>, Vec<f64>) {
        let t0 = e as f64 * 15.0;
        let routed = (0..7 + e).map(|k| t0 + 9.15 + k as f64 * 0.5).collect();
        let own = (0..40 + 3 * e).map(|k| t0 + 0.1 + k as f64 * 0.3).collect();
        (t0 + 15.0, routed, own)
    }

    /// What `inject_epoch` was before it staged: every arrival injected
    /// into its cell on the calling thread, there and then.
    fn inject_serially(region: &mut RegionSim, arrivals: &[f64], routed: bool) {
        for &arrival_s in arrivals {
            let i = region.injected;
            let cell = (i % region.cells.len() as u64) as usize;
            region.cells[cell].sim.inject_job(JobSpec {
                arrival_s,
                job: region.job.clone(),
                priority: match i % 4 {
                    0 => Priority::Critical,
                    3 => Priority::Batch,
                    _ => Priority::Normal,
                },
                video_id: i / 4,
            });
            region.injected += 1;
        }
        if routed {
            region.routed_in += arrivals.len() as u64;
        }
    }

    fn drive(inject: fn(&mut RegionSim, &[f64], bool)) -> RegionSim {
        let mut region = region();
        let mut t = 0.0;
        for e in 0..4 {
            let (t1, routed, own) = epoch(e);
            inject(&mut region, &routed, true);
            inject(&mut region, &own, false);
            assert!(region.busy(), "arrivals are outstanding, staged or not");
            region.advance_to(t1);
            assert!(region.cells.iter().all(|c| c.staged.is_empty()));
            t = t1;
        }
        while region.busy() {
            t += 15.0;
            region.advance_to(t);
        }
        region
    }

    #[test]
    fn staged_injection_matches_injecting_serially() {
        let (mut staged, mut serial) = (drive(RegionSim::inject_epoch), drive(inject_serially));
        assert_eq!(staged.injected, serial.injected);
        assert_eq!(
            (staged.merged, staged.merge_digest),
            (serial.merged, serial.merge_digest)
        );
        let cell_reports = |r: &mut RegionSim| -> Vec<String> {
            let cells = r.cells.drain(..);
            cells.map(|c| format!("{:?}", c.sim.finish())).collect()
        };
        assert_eq!(cell_reports(&mut staged), cell_reports(&mut serial));
        let (staged, serial) = (drive(RegionSim::inject_epoch), drive(inject_serially));
        let report = staged.finish();
        assert_eq!(report, serial.finish());
        assert_eq!(report.completed + report.failed, report.jobs);
        assert!(report.watchdog_fired > 0 && report.repairs == 1);
    }

    vcu_rng::prop_cases! {
        /// The merge against an independent reference: successive
        /// tie-heavy batches over several cells — times drawn from a
        /// handful of values, so ties fall inside and across cells, and
        /// a batch may open at the last merged time —
        /// leave `merge_batch` in the order one `EventQueue` pops them,
        /// pushed all then popped all, one queue across every merge.
        #[cases(48)]
        fn merge_batch_pops_like_one_event_queue(rng) {
            let cells = rng.gen_range(1usize..6);
            let (mut merged_s, mut queue) = (0.0, EventQueue::new());
            let mut job = 0;
            for step in 0..rng.gen_range(1usize..6) {
                let base = step as f64 * 2.0;
                let mut batch = Vec::new();
                for cell in 0..cells {
                    for _ in 0..rng.gen_range(0usize..120) {
                        let r = JobResolution {
                            job,
                            time_s: base + rng.gen_range(0u32..5) as f64 * 0.5,
                            completed: rng.gen_bool(0.8),
                        };
                        job += 1;
                        queue.schedule(r.time_s, (cell, r));
                        batch.push((cell, r));
                    }
                }
                merge_batch(&mut batch, &mut merged_s);
                let popped: Vec<_> = std::iter::from_fn(|| queue.pop().map(|s| s.event)).collect();
                assert_eq!(batch, popped, "step {step}: merge left queue order");
                assert_eq!(merged_s, queue.now());
            }
        }
    }

    fn resolution(job: usize, time_s: f64) -> (usize, JobResolution) {
        let r = JobResolution {
            job,
            time_s,
            completed: true,
        };
        (0, r)
    }

    #[test]
    #[should_panic(expected = "time is NaN")]
    fn merge_batch_rejects_a_nan_time() {
        merge_batch(&mut [resolution(0, 1.0), resolution(1, f64::NAN)], &mut 0.0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn merge_batch_rejects_a_time_before_the_last_merged() {
        let mut merged_s = 0.0;
        merge_batch(&mut [resolution(0, 10.0)], &mut merged_s);
        merge_batch(
            &mut [resolution(1, 12.0), resolution(2, 5.0)],
            &mut merged_s,
        );
    }

    #[test]
    fn staged_arrivals_keep_a_region_busy() {
        let mut region = region();
        assert!(!region.busy());
        region.inject_epoch(&[1.0], false);
        assert!(region.busy(), "one arrival staged, none injected");
        assert_eq!(region.injected(), 1);
        assert_eq!(region.cells[0].sim.unresolved_jobs(), 0);
        region.advance_to(5.0);
        assert!(region.busy(), "injected and in service");
        region.advance_to(30.0);
        assert!(!region.busy());
    }
}
