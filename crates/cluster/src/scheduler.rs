//! The video-processing work scheduler (§3.3.3, Figure 6).
//!
//! The production design is an online multi-dimensional bin-packing
//! scheduler: each worker advertises capacity in named scalar resource
//! dimensions (millidecode, milliencode, DRAM bytes, host mCPU); an
//! in-memory availability cache is consulted by a worker picker that
//! places each request first-fit by worker number. The paper contrasts
//! this with the prior "uniform CPU cost model (fixed CPU-seconds/
//! seconds per graph step)" — provided here as
//! [`SchedulerKind::SingleSlot`] for the ablation experiment.
//!
//! # The availability index
//!
//! The paper's scheduler serves "a sharded, in-memory availability
//! cache of all workers" at warehouse scale; it shards the cache to
//! scale out horizontally. This model runs one shard per cell, which
//! is all a simulated cell needs. A naive first-fit picker scans
//! workers linearly — O(n) per placement, quadratic collapse at
//! the 10,000-VCU fleets the simulator targets. [`Scheduler`] instead
//! maintains a wide (8-ary) tree over the worker array whose internal
//! nodes hold the *component-wise maximum* of remaining capacity below
//! them (plus a free-slot max, zero where no worker below accepts).
//! `place_from` descends it left to right, testing a node's `B`
//! children in one pass: a subtree whose max cannot hold the demand is
//! pruned wholesale, so the first fitting worker — in exactly linear
//! first-fit order — is found in O(B log_B n) on correlated capacities
//! (worst case O(n) when per-dimension maxima come from different
//! workers, which churny real loads rarely produce). The original scan
//! is kept as [`PlacementMode::LinearScan`], the property-tested
//! oracle: both modes must pick identical workers on identical request
//! streams, because first-fit order is observable behaviour
//! (black-holing and Figure 6 both depend on it).

use vcu_chip::ResourceDemand;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Multi-dimensional bin packing over named resources (the paper's
    /// contribution).
    MultiDim,
    /// Legacy single-slot model: each worker runs at most `slots`
    /// concurrent steps, ignoring the resource dimensions.
    SingleSlot {
        /// Concurrent steps per worker.
        slots: u32,
    },
}

/// How [`Scheduler::place_from`] searches the availability cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementMode {
    /// The wide availability index (the production path).
    #[default]
    Indexed,
    /// The original O(n) linear scan, kept as the test/bench oracle.
    LinearScan,
}

/// One worker's entry in the availability cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerAvailability {
    /// Remaining capacity across all dimensions: `capacity - used`,
    /// floored at zero per dimension (an oversubscribed single-slot
    /// worker has nothing left to give, not negative capacity).
    pub available: ResourceDemand,
    /// Exact sum of currently-placed demands. Under
    /// [`SchedulerKind::SingleSlot`] this may exceed the worker's
    /// capacity — the uniform cost model oversubscribes real resources
    /// — and keeping the exact figure (rather than saturating it away)
    /// is what keeps utilization honest and makes release symmetric.
    pub used: ResourceDemand,
    /// Jobs currently placed.
    pub jobs: u32,
    /// Whether the worker accepts new work (healthy + attached).
    pub accepting: bool,
}

/// Children per availability-index node: a node tests all of them
/// with one straight-line compare per dimension.
const B: usize = 8;
const _: () = assert!(B.is_power_of_two() && B <= 32, "a lane mask is a u32");

/// Values an index entry holds: remaining decode, encode, DRAM and host
/// capacity, then free slots.
const DIMS: usize = 5;

/// One index entry: a worker's remaining capacity and free slots, or
/// the component-wise max of the entries below it. A non-accepting
/// worker and padding are all zeros, and a search asks for at least one
/// free slot, so a zero-slot entry never matches — not even a zero
/// demand — and no separate accepting bit is kept.
type Entry = [u32; DIMS];

/// One level of the index: groups of `B` entries, each group stored
/// structure-of-arrays — one `[u32; B]` per dimension — so entry `k` is
/// lane `k % B` of group `k / B`. The last group is padded with zero
/// entries.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Level(Vec<[[u32; B]; DIMS]>);

impl Level {
    fn zeroed(entries: usize) -> Self {
        Level(vec![[[0; B]; DIMS]; entries.div_ceil(B)])
    }

    fn get(&self, k: usize) -> Entry {
        self.0[k / B].map(|dim| dim[k % B])
    }

    fn put(&mut self, k: usize, e: Entry) {
        for (dim, v) in self.0[k / B].iter_mut().zip(e) {
            dim[k % B] = v;
        }
    }

    /// The component-wise max of group `g`: what its parent holds.
    fn group_max(&self, g: usize) -> Entry {
        self.0[g].map(|dim| dim.into_iter().max().unwrap_or(0))
    }

    /// Bit `j` is set when lane `j` of group `g` holds at least `need`
    /// in every dimension.
    fn matches(&self, g: usize, need: &Entry) -> u32 {
        let mut fits = [true; B];
        for (dim, &n) in self.0[g].iter().zip(need) {
            for (f, &v) in fits.iter_mut().zip(dim) {
                *f &= v >= n;
            }
        }
        fits.iter()
            .enumerate()
            .fold(0, |mask, (j, &f)| mask | (f as u32) << j)
    }
}

/// A `B`-ary max tree over the worker array answering "first worker in
/// `[lo, hi)` holding at least `need` in every dimension".
#[derive(Debug)]
struct AvailabilityIndex {
    /// Leaves first; each level above holds one entry per group of the
    /// level below, up to a single root.
    levels: Vec<Level>,
}

impl AvailabilityIndex {
    /// The index over `leaves`, built bottom-up.
    fn build(leaves: impl ExactSizeIterator<Item = Entry>) -> Self {
        let mut entries = leaves.len();
        let mut level = Level::zeroed(entries);
        for (w, leaf) in leaves.enumerate() {
            level.put(w, leaf);
        }
        let mut levels = vec![level];
        while entries > 1 {
            let below = &levels[levels.len() - 1];
            entries = entries.div_ceil(B);
            let mut up = Level::zeroed(entries);
            for g in 0..entries {
                up.put(g, below.group_max(g));
            }
            levels.push(up);
        }
        AvailabilityIndex { levels }
    }

    /// Replaces worker `w`'s leaf and repairs its ancestors. Each
    /// parent takes the max with its child's new value, and rescans its
    /// `B` children only in a dimension where the child held the
    /// maximum and fell. The repair stops at the first ancestor that
    /// does not move: a node is a function of its children, so above
    /// it every ancestor still holds what a walk to the root would
    /// write.
    fn set(&mut self, w: usize, leaf: Entry) {
        let mut k = w;
        let mut old = self.levels[0].get(k);
        let mut new = leaf;
        self.levels[0].put(k, new);
        for level in 1..self.levels.len() {
            if old == new {
                debug_assert!(
                    self.fixed_above(level - 1, k),
                    "stale ancestor above entry {k} of level {}",
                    level - 1
                );
                return;
            }
            let held = self.levels[level].get(k / B);
            let mut next = held;
            for d in 0..DIMS {
                if new[d] >= held[d] {
                    next[d] = new[d];
                } else if old[d] == held[d] {
                    next[d] = self.levels[level - 1].0[k / B][d]
                        .into_iter()
                        .max()
                        .unwrap_or(0);
                }
            }
            k /= B;
            self.levels[level].put(k, next);
            (old, new) = (held, next);
        }
    }

    /// Whether every ancestor of entry `k` of `level` is the max of its
    /// children (the oracle of an early-exiting repair).
    fn fixed_above(&self, level: usize, mut k: usize) -> bool {
        (level + 1..self.levels.len()).all(|up| {
            k /= B;
            self.levels[up].get(k) == self.levels[up - 1].group_max(k)
        })
    }

    /// First worker index in `[lo, hi)` whose leaf holds at least
    /// `need` in every dimension. Holding `need` is monotone under the
    /// max — if a leaf holds it, so does every ancestor — so a subtree
    /// whose entry does not is pruned without visiting its leaves.
    fn find_first(&self, lo: usize, hi: usize, need: &Entry) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        self.search(self.levels.len() - 1, 0, lo, hi, need)
    }

    /// First leaf in `[lo, hi)` that holds `need`, below the entries of
    /// group `g` of `level`, visited left to right.
    fn search(&self, level: usize, g: usize, lo: usize, hi: usize, need: &Entry) -> Option<usize> {
        // Entry `k` of `level` spans leaves `[k << shift, (k + 1) << shift)`;
        // keep the lanes whose span meets `[lo, hi)`.
        let shift = level * B.trailing_zeros() as usize;
        let first = g * B;
        let a = (lo >> shift).saturating_sub(first);
        let b = ((hi - 1) >> shift) - first;
        let window = (u32::MAX << a) & (u32::MAX >> (31 - b.min(B - 1)));
        let mut mask = self.levels[level].matches(g, need) & window;
        while mask != 0 {
            let k = first + mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if level == 0 {
                return Some(k);
            }
            if let Some(w) = self.search(level - 1, k, lo, hi, need) {
                return Some(w);
            }
        }
        None
    }
}

/// The availability cache + worker picker: one shard of the paper's
/// horizontally sharded cache, holding every worker of the cell.
#[derive(Debug)]
pub struct Scheduler {
    kind: SchedulerKind,
    placement: PlacementMode,
    workers: Vec<WorkerAvailability>,
    index: AvailabilityIndex,
    capacity: ResourceDemand,
    /// Cluster-wide placed encode millicores (exact, including any
    /// single-slot oversubscription) — O(1) utilization queries.
    used_encode: u64,
    /// Cluster-wide placed decode millicores.
    used_decode: u64,
    /// See [`Scheduler::capacity_epoch`].
    capacity_epoch: u64,
    /// Statistics: placements attempted/succeeded.
    pub placements: u64,
    /// Requests that found no worker.
    pub rejections: u64,
}

impl Scheduler {
    /// Creates a scheduler over `n_workers` workers, each with the
    /// standard VCU worker capacity, using the indexed placement path.
    /// `shards` must be 1, the only value any caller passes; the
    /// argument stays until the benchmark's frozen API list drops it.
    pub fn new(kind: SchedulerKind, n_workers: usize, shards: usize) -> Self {
        assert_eq!(shards, 1, "the scheduler runs one shard");
        Self::with_placement(kind, n_workers, PlacementMode::default())
    }

    /// Like [`Scheduler::new`] with an explicit placement mode (the
    /// linear-scan oracle exists for differential tests).
    pub fn with_placement(kind: SchedulerKind, n_workers: usize, placement: PlacementMode) -> Self {
        let capacity = ResourceDemand::vcu_capacity();
        let workers: Vec<_> = (0..n_workers)
            .map(|_| WorkerAvailability {
                available: capacity,
                used: ResourceDemand::ZERO,
                jobs: 0,
                accepting: true,
            })
            .collect();
        Scheduler {
            kind,
            placement,
            index: AvailabilityIndex::build(workers.iter().map(|wk| leaf(kind, wk))),
            workers,
            capacity,
            used_encode: 0,
            used_decode: 0,
            capacity_epoch: 0,
            placements: 0,
            rejections: 0,
        }
    }

    /// Read a worker's availability.
    pub fn worker(&self, w: usize) -> &WorkerAvailability {
        &self.workers[w]
    }

    /// Marks a worker as (not) accepting work (fault management /
    /// pool reallocation).
    pub fn set_accepting(&mut self, w: usize, accepting: bool) {
        self.workers[w].accepting = accepting;
        if accepting {
            self.capacity_epoch += 1;
        }
        self.sync_index(w);
    }

    /// Counts the operations that can turn a rejection into a
    /// placement: [`Scheduler::release`] and re-accepting a worker.
    /// Everything else only takes capacity away, so while this stands
    /// still a demand that [`Scheduler::place_from`] rejected over some
    /// window is still rejected over it — and so is any demand at
    /// least as large in every dimension.
    pub fn capacity_epoch(&self) -> u64 {
        self.capacity_epoch
    }

    fn sync_index(&mut self, w: usize) {
        self.index.set(w, leaf(self.kind, &self.workers[w]));
    }

    /// Whether worker `w` can take `demand` under this scheduler's
    /// policy (the predicate both placement modes search with).
    fn can_place(&self, w: usize, demand: ResourceDemand) -> bool {
        let wk = &self.workers[w];
        wk.accepting
            && match self.kind {
                SchedulerKind::MultiDim => demand.fits_in(wk.available),
                SchedulerKind::SingleSlot { slots } => wk.jobs < slots,
            }
    }

    /// Places a request, returning the chosen worker index: first-fit
    /// by worker number over every worker. With one shard every hint
    /// starts at worker 0, so `_shard_hint` is ignored; it stays until
    /// the benchmark's frozen API list drops it.
    pub fn place(&mut self, demand: ResourceDemand, _shard_hint: usize) -> Option<usize> {
        self.place_from(demand, 0, self.workers.len())
    }

    /// Places a request scanning at most `window` workers starting at
    /// `start` (wrapping). `window = n_workers` is an unbounded scan;
    /// smaller windows implement the §4.4 future-work enhancement of
    /// consistent-hashing videos onto a bounded VCU subset to shrink
    /// blast radius.
    pub fn place_from(
        &mut self,
        demand: ResourceDemand,
        start: usize,
        window: usize,
    ) -> Option<usize> {
        match self.probe_from(demand, start, window) {
            Some(w) => {
                debug_assert!(
                    self.can_place(w, demand),
                    "index returned infeasible worker {w}"
                );
                self.commit_place(w, demand);
                self.placements += 1;
                Some(w)
            }
            None => {
                self.rejections += 1;
                None
            }
        }
    }

    /// The worker [`Scheduler::place_from`] would choose, without
    /// placing anything or touching the statistics.
    pub fn probe_from(&self, demand: ResourceDemand, start: usize, window: usize) -> Option<usize> {
        if self.workers.is_empty() || window == 0 {
            return None;
        }
        match self.placement {
            PlacementMode::LinearScan => self.scan_linear(demand, start, window),
            PlacementMode::Indexed => self.scan_indexed(demand, start, window),
        }
    }

    fn scan_linear(&self, demand: ResourceDemand, start: usize, window: usize) -> Option<usize> {
        let n = self.workers.len();
        (0..window.min(n))
            .map(|off| (start + off) % n)
            .find(|&w| self.can_place(w, demand))
    }

    fn scan_indexed(&self, demand: ResourceDemand, start: usize, window: usize) -> Option<usize> {
        let n = self.workers.len();
        let win = window.min(n);
        let lo = start % n;
        // One free slot, and under the multi-dim policy the demand.
        let need = match self.kind {
            SchedulerKind::MultiDim => [
                demand.millidecode,
                demand.milliencode,
                demand.dram_mib,
                demand.host_mcpu,
                1,
            ],
            SchedulerKind::SingleSlot { .. } => [0, 0, 0, 0, 1],
        };
        // The wrapping window [lo, lo+win) splits into at most two
        // non-wrapping index queries.
        let query = |a: usize, b: usize| self.index.find_first(a, b.min(n), &need);
        if lo + win <= n {
            query(lo, lo + win)
        } else {
            query(lo, n).or_else(|| query(0, lo + win - n))
        }
    }

    /// Books `demand` onto worker `w` (the caller has established the
    /// placement is allowed under the current policy). Single-slot
    /// placements still consume dimensions physically — so utilization
    /// accounting stays honest — even where the sum oversubscribes the
    /// worker, mirroring how a uniform cost model both strands and
    /// oversubscribes real resources.
    fn commit_place(&mut self, w: usize, demand: ResourceDemand) {
        let capacity = self.capacity;
        let wk = &mut self.workers[w];
        wk.used = wk.used.plus(demand);
        wk.available = capacity.minus(wk.used);
        wk.jobs += 1;
        self.used_encode += demand.milliencode as u64;
        self.used_decode += demand.millidecode as u64;
        self.sync_index(w);
    }

    /// Releases a previously placed request. Because `used` tracks the
    /// exact placed sum (not a saturated remainder), releasing one of
    /// two oversubscribing jobs restores exactly that job's demand —
    /// capacity can never be double-restored.
    pub fn release(&mut self, w: usize, demand: ResourceDemand) {
        let capacity = self.capacity;
        let wk = &mut self.workers[w];
        wk.used = wk.used.minus(demand);
        wk.available = capacity.minus(wk.used);
        wk.jobs = wk.jobs.saturating_sub(1);
        self.used_encode = self.used_encode.saturating_sub(demand.milliencode as u64);
        self.used_decode = self.used_decode.saturating_sub(demand.millidecode as u64);
        self.capacity_epoch += 1;
        self.sync_index(w);
    }

    /// Fraction of total encode millicores currently in use (the
    /// cluster-wide encoder utilization the paper maximizes). O(1):
    /// maintained incrementally on place/release. May exceed 1.0 when
    /// the single-slot ablation oversubscribes workers — that excess
    /// *is* the ablation's finding, so it is reported, not clamped.
    pub fn encode_utilization(&self) -> f64 {
        let denom = self.capacity.milliencode as f64 * self.workers.len() as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        self.used_encode as f64 / denom
    }

    /// Fraction of total decode millicores in use. O(1).
    pub fn decode_utilization(&self) -> f64 {
        let denom = self.capacity.millidecode as f64 * self.workers.len() as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        self.used_decode as f64 / denom
    }
}

/// A worker's entry in the availability index under policy `kind`:
/// zero when it does not accept work.
fn leaf(kind: SchedulerKind, wk: &WorkerAvailability) -> Entry {
    if !wk.accepting {
        return [0; DIMS];
    }
    let a = wk.available;
    let slots = match kind {
        SchedulerKind::SingleSlot { slots } => slots.saturating_sub(wk.jobs),
        // The multi-dim policy asks the dimensions; any nonzero value.
        SchedulerKind::MultiDim => 1,
    };
    [a.millidecode, a.milliencode, a.dram_mib, a.host_mcpu, slots]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(d: u32, e: u32) -> ResourceDemand {
        ResourceDemand {
            millidecode: d,
            milliencode: e,
            dram_mib: 100,
            host_mcpu: 50,
        }
    }

    #[test]
    fn figure6_example() {
        // Worker 0: decode exhausted; Worker 1 has capacity; request
        // {D 500, E 3750} goes to worker 1.
        let mut s = Scheduler::new(SchedulerKind::MultiDim, 3, 1);
        // Drain worker 0's decode.
        assert_eq!(s.place(demand(3000, 3000), 0), Some(0));
        let placed = s.place(demand(500, 3750), 0);
        assert_eq!(placed, Some(1), "request must skip decode-starved worker 0");
    }

    #[test]
    fn first_fit_by_worker_number() {
        let mut s = Scheduler::new(SchedulerKind::MultiDim, 4, 1);
        assert_eq!(s.place(demand(100, 100), 0), Some(0));
        assert_eq!(
            s.place(demand(100, 100), 0),
            Some(0),
            "packs onto first fit"
        );
    }

    #[test]
    fn rejection_when_full() {
        let mut s = Scheduler::new(SchedulerKind::MultiDim, 1, 1);
        assert!(s.place(demand(3000, 10000), 0).is_some());
        assert!(s.place(demand(1, 1), 0).is_none());
        assert_eq!(s.rejections, 1);
    }

    #[test]
    fn release_restores_capacity() {
        let mut s = Scheduler::new(SchedulerKind::MultiDim, 1, 1);
        let d = demand(3000, 10000);
        let w = s.place(d, 0).unwrap();
        s.release(w, d);
        assert!(s.place(demand(1000, 1000), 0).is_some());
    }

    #[test]
    fn single_slot_ignores_dimensions() {
        let mut s = Scheduler::new(SchedulerKind::SingleSlot { slots: 2 }, 1, 1);
        // Two tiny jobs fill both slots even though resources remain.
        assert!(s.place(demand(10, 10), 0).is_some());
        assert!(s.place(demand(10, 10), 0).is_some());
        assert!(s.place(demand(10, 10), 0).is_none(), "slot limit binds");
    }

    #[test]
    fn single_slot_oversubscription_accounting() {
        // Two jobs whose sum exceeds capacity on one worker: the
        // legacy single-slot model happily oversubscribes, and the
        // books must say so — not silently lose the overflow on place
        // and then double-restore it on release.
        let mut s = Scheduler::new(SchedulerKind::SingleSlot { slots: 2 }, 1, 1);
        let d = demand(2000, 8000); // 2× exceeds both 3000 decode and 10000 encode
        assert_eq!(s.place(d, 0), Some(0));
        assert_eq!(s.place(d, 0), Some(0));
        // 16000 encode millicores placed on a 10000 worker: 1.6×.
        assert!(
            s.encode_utilization() > 1.0,
            "oversubscription must be visible: {}",
            s.encode_utilization()
        );
        s.release(0, d);
        // One 8000-encode / 2000-decode job remains.
        assert!(
            (s.encode_utilization() - 0.8).abs() < 1e-9,
            "encode util after release: {}",
            s.encode_utilization()
        );
        assert_eq!(s.worker(0).available.milliencode, 2000);
        assert_eq!(s.worker(0).available.millidecode, 1000);
        s.release(0, d);
        assert_eq!(s.worker(0).available, ResourceDemand::vcu_capacity());
        assert_eq!(s.encode_utilization(), 0.0);
    }

    #[test]
    fn non_accepting_workers_skipped() {
        let mut s = Scheduler::new(SchedulerKind::MultiDim, 2, 1);
        s.set_accepting(0, false);
        assert_eq!(s.place(demand(100, 100), 0), Some(1));
    }

    #[test]
    fn utilization_accounting() {
        let mut s = Scheduler::new(SchedulerKind::MultiDim, 2, 1);
        assert_eq!(s.encode_utilization(), 0.0);
        s.place(demand(0, 10000), 0);
        assert!((s.encode_utilization() - 0.5).abs() < 1e-9);
        s.place(demand(3000, 0), 0);
        assert!((s.decode_utilization() - 0.5).abs() < 1e-9);
    }

    /// Drives an indexed and a linear-scan scheduler through the same
    /// deterministic request/release/churn script and asserts they pick
    /// identical workers and end in identical states; then asks both
    /// about windows whose ends fall on, beside and between the group
    /// boundaries of every level.
    fn assert_modes_agree(kind: SchedulerKind, n: usize) {
        let mut a = Scheduler::with_placement(kind, n, PlacementMode::Indexed);
        let mut b = Scheduler::with_placement(kind, n, PlacementMode::LinearScan);
        let mut placed: Vec<(usize, ResourceDemand)> = Vec::new();
        for i in 0..400.max(2 * n) {
            let d = demand((i as u32 * 613) % 1500, (i as u32 * 217) % 4000);
            let start = (i * 7) % (n + 3); // exercise start >= n wrapping
            let window = 1 + (i * 11) % n.max(1);
            let wa = a.place_from(d, start, window);
            let wb = b.place_from(d, start, window);
            assert_eq!(wa, wb, "op {i}: indexed {wa:?} vs linear {wb:?}");
            if let Some(w) = wa {
                placed.push((w, d));
            }
            if i % 3 == 0 {
                if let Some((w, d)) = placed.pop() {
                    a.release(w, d);
                    b.release(w, d);
                }
            }
            if i % 17 == 0 && n > 0 {
                let w = (i / 17) % n;
                let acc = (i / 17) % 3 != 0;
                a.set_accepting(w, acc);
                b.set_accepting(w, acc);
            }
        }
        for w in 0..n {
            assert_eq!(a.worker(w), b.worker(w), "worker {w} state diverged");
        }
        assert_eq!(a.placements, b.placements);
        assert_eq!(a.rejections, b.rejections);
        let edges: Vec<usize> = [1, B, B * B, B * B * B]
            .into_iter()
            .flat_map(|span| [span - 1, span, span + 1, 3 * span - 1, 3 * span + 2])
            .chain([0, n - 1, n, n + 1])
            .collect();
        for &start in &edges {
            for &window in &edges {
                for d in [demand(0, 0), demand(900, 2_500), demand(2_400, 7_000)] {
                    let (wa, wb) = (
                        a.probe_from(d, start, window),
                        b.probe_from(d, start, window),
                    );
                    assert_eq!(wa, wb, "n={n} start={start} window={window} {d:?}");
                }
            }
        }
    }

    /// Sizes with one to five index levels, full and partial last
    /// groups.
    const SIZES: [usize; 10] = [1, 2, 7, 8, 9, 63, 64, 65, 600, 4_097];

    #[test]
    fn indexed_matches_linear_scan_multidim() {
        for n in SIZES {
            assert_modes_agree(SchedulerKind::MultiDim, n);
        }
    }

    #[test]
    fn indexed_matches_linear_scan_single_slot() {
        for n in SIZES {
            assert_modes_agree(SchedulerKind::SingleSlot { slots: 3 }, n);
        }
    }

    vcu_rng::prop_cases! {
        /// The index a stream of early-exiting repairs leaves behind is
        /// the one a bottom-up rebuild from the workers' leaves gives:
        /// after every `place_from` / `release` / `set_accepting` over
        /// 1–1,000 workers (up to five levels), under both policies,
        /// every level equals the rebuild's, root and padding included.
        #[cases(96)]
        fn repaired_index_equals_a_rebuild_from_the_leaves(rng) {
            let n = rng.gen_range(1usize..=1_000);
            let kind = if rng.gen_bool(0.5) {
                SchedulerKind::MultiDim
            } else {
                SchedulerKind::SingleSlot { slots: rng.gen_range(1u32..4) }
            };
            let mut s = Scheduler::new(kind, n, 1);
            let mut live: Vec<(usize, ResourceDemand)> = Vec::new();
            for op in 0..rng.gen_range(1usize..300) {
                match rng.gen_range(0u32..10) {
                    0..=5 => {
                        // Every dimension free, zero included: an
                        // ancestor's slot count can then move while its
                        // capacity maxima do not.
                        let d = ResourceDemand {
                            millidecode: rng.gen_range(0u32..2_000),
                            milliencode: rng.gen_range(0u32..6_000),
                            dram_mib: rng.gen_range(0u32..4_000),
                            host_mcpu: rng.gen_range(0u32..3_000),
                        };
                        let start = rng.gen_range(0usize..3 * n);
                        let window = rng.gen_range(0usize..2 * n + 1);
                        live.extend(s.place_from(d, start, window).map(|w| (w, d)));
                    }
                    6..=7 if !live.is_empty() => {
                        let (w, d) = live.swap_remove(rng.gen_range(0usize..live.len()));
                        s.release(w, d);
                    }
                    _ => s.set_accepting(rng.gen_range(0usize..n), rng.gen_bool(0.5)),
                }
                let rebuilt = AvailabilityIndex::build(s.workers.iter().map(|wk| leaf(kind, wk)));
                assert_eq!(s.index.levels, rebuilt.levels, "op {op} (n={n}, {kind:?})");
            }
        }
    }

    #[test]
    fn zero_demand_skips_non_accepting_workers() {
        // A zero demand "fits" even an empty availability node, so the
        // index must still refuse non-accepting workers.
        let mut s = Scheduler::new(SchedulerKind::MultiDim, 3, 1);
        s.set_accepting(0, false);
        s.set_accepting(1, false);
        assert_eq!(s.place(ResourceDemand::ZERO, 0), Some(2));
    }

    #[test]
    fn windowed_wrapping_search() {
        let mut s = Scheduler::new(SchedulerKind::MultiDim, 8, 1);
        // Fill workers 6 and 7; a window of 3 starting at 6 wraps to 0.
        assert!(s.place_from(demand(3000, 10000), 6, 1).is_some());
        assert!(s.place_from(demand(3000, 10000), 7, 1).is_some());
        assert_eq!(s.place_from(demand(100, 100), 6, 3), Some(0));
        // A window that excludes every fitting worker rejects.
        assert_eq!(s.place_from(demand(3000, 10000), 6, 2), None);
    }
}
