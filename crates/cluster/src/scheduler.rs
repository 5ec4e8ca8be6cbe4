//! The video-processing work scheduler (§3.3.3, Figure 6).
//!
//! The production design is an online multi-dimensional bin-packing
//! scheduler: each worker advertises capacity in named scalar resource
//! dimensions (millidecode, milliencode, DRAM bytes, host mCPU); a
//! sharded in-memory availability cache is consulted by a worker
//! picker that places each request first-fit by worker number. The
//! paper contrasts this with the prior "uniform CPU cost model (fixed
//! CPU-seconds/seconds per graph step)" — provided here as
//! [`SchedulerKind::SingleSlot`] for the ablation experiment.
//!
//! # The availability index
//!
//! The paper's scheduler serves "a sharded, in-memory availability
//! cache of all workers" at warehouse scale. A naive first-fit picker
//! scans workers linearly — O(n) per placement, quadratic collapse at
//! the 10,000-VCU fleets the simulator targets. [`Scheduler`] instead
//! maintains a segment tree over the worker array whose internal nodes
//! hold the *component-wise maximum* of remaining capacity below them
//! (plus a free-slot max for the single-slot ablation and an
//! any-accepting bit). `place_from` descends the tree left-to-right:
//! a subtree whose max cannot hold the demand is pruned wholesale, so
//! the first fitting worker — in exactly linear first-fit order — is
//! found in O(log n) on correlated capacities (worst case O(n) when
//! per-dimension maxima come from different workers, which churny real
//! loads rarely produce). The original scan is kept as
//! [`PlacementMode::LinearScan`], the property-tested oracle: both
//! modes must pick identical workers on identical request streams,
//! because first-fit order is observable behaviour (black-holing and
//! Figure 6 both depend on it).

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
    /// O(log n) segment-tree availability index (the production path).
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

/// One segment-tree node: the component-wise max of remaining capacity
/// over all *accepting* workers in its subtree, the max free slot count
/// (single-slot ablation), and whether any worker below accepts work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexNode {
    avail: ResourceDemand,
    free_slots: u32,
    accepting: bool,
}

impl IndexNode {
    const EMPTY: IndexNode = IndexNode {
        avail: ResourceDemand::ZERO,
        free_slots: 0,
        accepting: false,
    };

    fn merge(a: IndexNode, b: IndexNode) -> IndexNode {
        IndexNode {
            avail: a.avail.component_max(b.avail),
            free_slots: a.free_slots.max(b.free_slots),
            accepting: a.accepting || b.accepting,
        }
    }
}

/// Segment tree over the worker array answering "first worker in
/// `[lo, hi)` whose availability satisfies a monotone predicate".
#[derive(Debug)]
struct AvailabilityIndex {
    /// Leaf count rounded up to a power of two (tree arithmetic).
    size: usize,
    /// `2 * size` nodes, leaves at `size..size + n`; padding leaves
    /// stay `EMPTY` and are never returned (queries clamp to `n`).
    tree: Vec<IndexNode>,
}

impl AvailabilityIndex {
    fn new(n: usize) -> Self {
        let size = n.next_power_of_two().max(1);
        AvailabilityIndex {
            size,
            tree: vec![IndexNode::EMPTY; 2 * size],
        }
    }

    /// What internal node `i` must hold: the merge of its children.
    fn merged(&self, i: usize) -> IndexNode {
        IndexNode::merge(self.tree[2 * i], self.tree[2 * i + 1])
    }

    /// Replaces worker `w`'s leaf and repairs its ancestors, stopping
    /// at the first whose aggregate the new leaf does not move: a node
    /// is a function of its two children, so above an unchanged node
    /// every ancestor still holds what a walk to the root would write.
    /// A leaf below its siblings' maximum costs one merge, not one per
    /// level.
    fn set(&mut self, w: usize, leaf: IndexNode) {
        let mut i = self.size + w;
        self.tree[i] = leaf;
        while i > 1 {
            i /= 2;
            let merged = self.merged(i);
            if self.tree[i] == merged {
                debug_assert!(
                    std::iter::successors(Some(i / 2), |&a| Some(a / 2))
                        .take_while(|&a| a >= 1)
                        .all(|a| self.tree[a] == self.merged(a)),
                    "stale ancestor above node {i}"
                );
                return;
            }
            self.tree[i] = merged;
        }
    }

    /// First worker index in `[lo, hi)` whose leaf satisfies `pred`.
    /// `pred` must be monotone under [`IndexNode::merge`]: if it holds
    /// for any leaf it holds for every ancestor aggregate, so a subtree
    /// whose aggregate fails can be pruned without visiting leaves.
    fn find_first(
        &self,
        lo: usize,
        hi: usize,
        pred: &impl Fn(&IndexNode) -> bool,
    ) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        self.descend(1, 0, self.size, lo, hi, pred)
    }

    fn descend(
        &self,
        node: usize,
        node_lo: usize,
        node_hi: usize,
        lo: usize,
        hi: usize,
        pred: &impl Fn(&IndexNode) -> bool,
    ) -> Option<usize> {
        if node_hi <= lo || hi <= node_lo || !pred(&self.tree[node]) {
            return None;
        }
        if node_hi - node_lo == 1 {
            return Some(node_lo);
        }
        let mid = (node_lo + node_hi) / 2;
        self.descend(2 * node, node_lo, mid, lo, hi, pred)
            .or_else(|| self.descend(2 * node + 1, mid, node_hi, lo, hi, pred))
    }
}

/// The sharded availability cache + worker picker.
///
/// Sharding models the paper's horizontally-scaled scheduler: workers
/// are partitioned across shards and a request only consults its
/// shard's cache (consistent with "sharded, in-memory availability
/// cache of all workers").
#[derive(Debug)]
pub struct Scheduler {
    kind: SchedulerKind,
    placement: PlacementMode,
    shards: usize,
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
    /// standard VCU worker capacity, in `shards` shards, using the
    /// indexed placement path.
    pub fn new(kind: SchedulerKind, n_workers: usize, shards: usize) -> Self {
        Self::with_placement(kind, n_workers, shards, PlacementMode::default())
    }

    /// Like [`Scheduler::new`] with an explicit placement mode (the
    /// linear-scan oracle exists for differential tests and benches).
    pub fn with_placement(
        kind: SchedulerKind,
        n_workers: usize,
        shards: usize,
        placement: PlacementMode,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        let capacity = ResourceDemand::vcu_capacity();
        let mut s = Scheduler {
            kind,
            placement,
            shards,
            workers: (0..n_workers)
                .map(|_| WorkerAvailability {
                    available: capacity,
                    used: ResourceDemand::ZERO,
                    jobs: 0,
                    accepting: true,
                })
                .collect(),
            index: AvailabilityIndex::new(n_workers),
            capacity,
            used_encode: 0,
            used_decode: 0,
            capacity_epoch: 0,
            placements: 0,
            rejections: 0,
        };
        for w in 0..n_workers {
            s.sync_index(w);
        }
        s
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

    /// Worker `w`'s leaf in the availability index.
    fn leaf_of(&self, w: usize) -> IndexNode {
        let wk = &self.workers[w];
        if !wk.accepting {
            return IndexNode::EMPTY;
        }
        IndexNode {
            avail: wk.available,
            free_slots: match self.kind {
                SchedulerKind::SingleSlot { slots } => slots.saturating_sub(wk.jobs),
                // Unused by the multi-dim predicate; any nonzero value.
                SchedulerKind::MultiDim => 1,
            },
            accepting: true,
        }
    }

    fn sync_index(&mut self, w: usize) {
        let leaf = self.leaf_of(w);
        self.index.set(w, leaf);
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

    /// Places a request, returning the chosen worker index. First-fit
    /// by worker number within the request's shard, then the other
    /// shards (work spills when local capacity is unavailable, like
    /// the paper's cross-cluster spill).
    pub fn place(&mut self, demand: ResourceDemand, shard_hint: usize) -> Option<usize> {
        let n = self.workers.len();
        let shard_size = n.div_ceil(self.shards.max(1)).max(1);
        let home = (shard_hint % self.shards.max(1)) * shard_size;
        self.place_from(demand, home, n)
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
        // The wrapping window [lo, lo+win) splits into at most two
        // non-wrapping index queries.
        let query = |a: usize, b: usize| -> Option<usize> {
            match self.kind {
                SchedulerKind::MultiDim => self.index.find_first(a, b.min(n), &|nd: &IndexNode| {
                    nd.accepting && demand.fits_in(nd.avail)
                }),
                SchedulerKind::SingleSlot { .. } => {
                    self.index.find_first(a, b.min(n), &|nd: &IndexNode| {
                        nd.accepting && nd.free_slots > 0
                    })
                }
            }
        };
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

    #[test]
    fn sharding_spreads_home_workers() {
        let mut s = Scheduler::new(SchedulerKind::MultiDim, 4, 2);
        // Shard hint 1 starts scanning at worker 2.
        assert_eq!(s.place(demand(100, 100), 1), Some(2));
        assert_eq!(s.place(demand(100, 100), 0), Some(0));
    }

    /// Drives an indexed and a linear-scan scheduler through the same
    /// deterministic request/release/churn script and asserts they pick
    /// identical workers and end in identical states.
    fn assert_modes_agree(kind: SchedulerKind, n: usize) {
        let mut a = Scheduler::with_placement(kind, n, 2, PlacementMode::Indexed);
        let mut b = Scheduler::with_placement(kind, n, 2, PlacementMode::LinearScan);
        let mut placed: Vec<(usize, ResourceDemand)> = Vec::new();
        for i in 0..400usize {
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
    }

    #[test]
    fn indexed_matches_linear_scan_multidim() {
        for n in [1, 2, 3, 7, 16, 33] {
            assert_modes_agree(SchedulerKind::MultiDim, n);
        }
    }

    #[test]
    fn indexed_matches_linear_scan_single_slot() {
        for n in [1, 2, 5, 32] {
            assert_modes_agree(SchedulerKind::SingleSlot { slots: 3 }, n);
        }
    }

    vcu_rng::prop_cases! {
        /// The index a stream of early-exiting repairs leaves behind is
        /// the one a bottom-up rebuild from the workers' leaves gives:
        /// after every `place_from` / `release` / `set_accepting` over
        /// 1–300 workers, under both policies, each internal node is
        /// the merge of its children, root included.
        #[cases(96)]
        fn repaired_index_equals_a_rebuild_from_the_leaves(rng) {
            let n = rng.gen_range(1usize..=300);
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
                        // ancestor's slot count or accepting bit can
                        // then move while its capacity maxima do not.
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
                let mut rebuilt = AvailabilityIndex::new(n);
                for w in 0..n {
                    rebuilt.tree[rebuilt.size + w] = s.leaf_of(w);
                }
                for i in (1..rebuilt.size).rev() {
                    rebuilt.tree[i] = rebuilt.merged(i);
                }
                assert_eq!(s.index.tree, rebuilt.tree, "op {op} (n={n}, {kind:?})");
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
