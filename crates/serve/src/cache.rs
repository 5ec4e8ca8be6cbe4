//! Capacity-bounded segment cache with a popularity-protected tier.
//!
//! Two *independent* pure-LRU tiers over transcoded segments:
//!
//! - the **protected** tier holds only segments of popularity-head
//!   videos (the catalog fixes head membership at generation time), so
//!   the head working set — most of the watch time per §2.2 — cannot
//!   be flushed by a scan of one-off tail requests;
//! - the **main** tier holds everything else.
//!
//! A segment's tier is a pure function of its video (never of request
//! history), each tier runs strict LRU, and both tier capacities grow
//! monotonically with the total capacity. Each tier is therefore a
//! stack algorithm — a larger cache's content is a superset of a
//! smaller one's at every point of any fixed trace — which gives the
//! property the gate tests lean on: **hit count is monotone in
//! capacity** at a fixed trace. A plain SLRU with history-dependent
//! promotion would not guarantee that.
//!
//! Implementation: slab-backed intrusive doubly-linked lists (no
//! per-entry allocation after warmup) + one `HashMap` for lookup.

use std::collections::HashMap;

/// Packs a (video, segment) pair into the cache key.
pub fn seg_key(video: u32, segment: u32) -> u64 {
    ((video as u64) << 32) | segment as u64
}

/// Video id of a packed key.
pub fn key_video(key: u64) -> u32 {
    (key >> 32) as u32
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
}

/// One slab-backed LRU list: head = most recent, tail = eviction
/// candidate.
#[derive(Debug, Default)]
struct Lru {
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl Lru {
    fn new() -> Self {
        Lru {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    fn push_front(&mut self, key: u64) -> u32 {
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Node {
                    key,
                    prev: NIL,
                    next: self.head,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    key,
                    prev: NIL,
                    next: self.head,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        self.len += 1;
        idx
    }

    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.len -= 1;
    }

    /// Moves `idx` to the front (most-recently-used position).
    fn touch(&mut self, idx: u32) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        let key = self.nodes[idx as usize].key;
        self.nodes[idx as usize] = Node {
            key,
            prev: NIL,
            next: self.head,
        };
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        self.len += 1;
    }

    /// Evicts the least-recently-used entry, returning its key.
    fn pop_back(&mut self) -> Option<u64> {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        self.unlink(idx);
        self.free.push(idx);
        Some(self.nodes[idx as usize].key)
    }
}

/// The segment cache. Capacity is in segments (uniform-duration
/// segments make bytes proportional to count).
#[derive(Debug)]
pub struct SegmentCache {
    protected_cap: usize,
    main_cap: usize,
    protected: Lru,
    main: Lru,
    /// key → (is_protected_tier, node index within that tier).
    map: HashMap<u64, (bool, u32)>,
    hits: u64,
    misses: u64,
}

impl SegmentCache {
    /// A cache of `capacity` total segments, `protected_frac` of which
    /// (rounded up, but always leaving ≥ 1 main slot when capacity
    /// allows) are reserved for popularity-head segments.
    ///
    /// Both tier capacities are non-decreasing in `capacity` (the
    /// protected share gains at most one slot per added slot), which
    /// the monotone-hit-ratio property requires.
    pub fn new(capacity: usize, protected_frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&protected_frac),
            "protected_frac must be in [0, 1], got {protected_frac}"
        );
        let protected_cap =
            ((capacity as f64 * protected_frac).ceil() as usize).min(capacity.saturating_sub(1));
        SegmentCache {
            protected_cap,
            main_cap: capacity - protected_cap,
            protected: Lru::new(),
            main: Lru::new(),
            map: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks `key` up, counting a hit or miss and refreshing recency
    /// on hit.
    pub fn lookup(&mut self, key: u64) -> bool {
        match self.map.get(&key) {
            Some(&(protected, idx)) => {
                if protected {
                    self.protected.touch(idx);
                } else {
                    self.main.touch(idx);
                }
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Inserts a freshly transcoded segment. `head` selects the
    /// protected tier (when one exists); the tier's LRU entry is
    /// evicted if it is full. Re-inserting a present key only
    /// refreshes its recency.
    pub fn insert(&mut self, key: u64, head: bool) {
        if let Some(&(protected, idx)) = self.map.get(&key) {
            if protected {
                self.protected.touch(idx);
            } else {
                self.main.touch(idx);
            }
            return;
        }
        let protected = head && self.protected_cap > 0;
        let cap = if protected {
            self.protected_cap
        } else {
            self.main_cap
        };
        if cap == 0 {
            return; // zero-capacity tier: uncacheable
        }
        let tier_len = if protected {
            self.protected.len
        } else {
            self.main.len
        };
        if tier_len >= cap {
            let evicted = if protected {
                self.protected.pop_back()
            } else {
                self.main.pop_back()
            }
            .expect("full tier has a tail");
            self.map.remove(&evicted);
        }
        let idx = if protected {
            self.protected.push_front(key)
        } else {
            self.main.push_front(key)
        };
        self.map.insert(key, (protected, idx));
    }

    /// Presence check without touching recency or counters.
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Cached segments across both tiers.
    pub fn len(&self) -> usize {
        self.protected.len + self.main.len
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity in segments.
    pub fn capacity(&self) -> usize {
        self.protected_cap + self.main_cap
    }

    /// Protected-tier capacity.
    pub fn protected_capacity(&self) -> usize {
        self.protected_cap
    }

    /// Segments currently in the protected tier.
    pub fn protected_len(&self) -> usize {
        self.protected.len
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hits / lookups (0 before any lookup).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays `trace` against a fresh cache of `capacity`: lookup,
    /// then insert on miss (the serving layer's pattern, minus the
    /// transcode latency). Returns the cache.
    fn replay(capacity: usize, frac: f64, trace: &[(u64, bool)]) -> SegmentCache {
        let mut c = SegmentCache::new(capacity, frac);
        for &(key, head) in trace {
            if !c.lookup(key) {
                c.insert(key, head);
            }
        }
        c
    }

    #[test]
    fn never_exceeds_capacity() {
        let trace: Vec<(u64, bool)> = (0..10_000u64).map(|i| (i % 321, i % 7 == 0)).collect();
        for cap in [1, 2, 3, 8, 64, 100] {
            let c = replay(cap, 0.25, &trace);
            assert!(c.len() <= cap, "cap {cap}: len {}", c.len());
            assert!(c.protected_len() <= c.protected_capacity());
        }
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = SegmentCache::new(2, 0.0);
        c.insert(1, false);
        c.insert(2, false);
        c.lookup(1); // 1 is now MRU
        c.insert(3, false); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn protected_survives_scan() {
        // Head segments go in, then a huge one-shot tail scan; the
        // protected tier must keep every head segment.
        let mut c = SegmentCache::new(100, 0.2); // 20 protected + 80 main
        for k in 0..20u64 {
            c.insert(seg_key(1, k as u32), true);
        }
        for k in 0..5_000u64 {
            let key = seg_key(1000 + k as u32, 0);
            assert!(!c.lookup(key));
            c.insert(key, false);
        }
        for k in 0..20u64 {
            assert!(
                c.contains(seg_key(1, k as u32)),
                "head segment {k} flushed by the scan"
            );
        }
        assert!(c.len() <= 100);
    }

    #[test]
    fn hits_monotone_in_capacity() {
        // Stack property: on a fixed trace, a bigger cache never hits
        // less. Zipf-ish synthetic trace mixing head and tail.
        let mut rng = vcu_rng::Rng::seed_from_u64(11);
        let trace: Vec<(u64, bool)> = (0..30_000)
            .map(|_| {
                if rng.gen_bool(0.6) {
                    (
                        seg_key(rng.gen_range(0u32..40), rng.gen_range(0u32..6)),
                        true,
                    )
                } else {
                    (
                        seg_key(rng.gen_range(1000u32..9000), rng.gen_range(0u32..6)),
                        false,
                    )
                }
            })
            .collect();
        let mut last_hits = 0u64;
        for cap in [16, 64, 256, 1024, 4096] {
            let c = replay(cap, 0.2, &trace);
            assert!(
                c.hits() >= last_hits,
                "cap {cap}: hits {} < smaller cache's {last_hits}",
                c.hits()
            );
            last_hits = c.hits();
        }
    }

    #[test]
    fn tiny_caches_work() {
        // capacity 1 → all main; capacity 0 → nothing cacheable.
        let mut c = SegmentCache::new(1, 0.5);
        assert_eq!(c.protected_capacity(), 0);
        c.insert(7, true); // head falls back to the main tier
        assert!(c.contains(7));
        c.insert(8, false);
        assert!(!c.contains(7), "capacity-1 cache holds exactly one");

        let mut z = SegmentCache::new(0, 0.5);
        z.insert(7, true);
        assert!(!z.contains(7));
        assert_eq!(z.len(), 0);
    }

    #[test]
    fn counters_track_lookups() {
        let mut c = SegmentCache::new(4, 0.0);
        assert!(!c.lookup(1));
        c.insert(1, false);
        assert!(c.lookup(1));
        assert!(c.lookup(1));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
