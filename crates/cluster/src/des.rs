//! Minimal discrete-event simulation core.
//!
//! A time-ordered event queue with stable FIFO ordering for ties —
//! enough machinery for the cluster simulator without pulling in an
//! external framework. Determinism comes first: every experiment must
//! replay exactly from its seed, so the order events leave the queue is
//! fixed by one rule, ascending `(time, seq)`, where `seq` is the
//! position of the schedule call in the run.
//!
//! Speed comes from not heap-ordering what is already ordered. The
//! events of an [`EventQueue`] live in up to three kinds of place, and
//! all of them draw `seq` from the same counter:
//!
//! - the **heap**, for anything ([`EventQueue::schedule`]);
//! - **FIFO lanes** ([`EventQueue::schedule_on`]), for a stream of
//!   events whose times the caller expects to be non-decreasing — a
//!   fixed timeout added to a rising clock, arrivals submitted in time
//!   order. A lane is a `VecDeque`: O(1) in and out, and an event that
//!   does arrive out of order goes to the heap instead, so a lane is
//!   always sorted;
//! - the **caller's own sorted storage** ([`EventQueue::reserve`]), for
//!   events known up front, such as a simulator's vector of arrivals,
//!   which the caller walks with a cursor.
//!
//! `pop` takes the `(time, seq)` minimum over the lane heads and the
//! heap head. Partitioning a totally ordered set never changes its
//! minimum — the argument [`ShardedEventQueue`] rests on — so which
//! place an event went to cannot change when it pops: there is nothing
//! to configure, and no result depends on it. Debug builds check that
//! against a shadow heap of every pending key on every pop.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An event scheduled at a simulation time.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// Simulation time in seconds.
    pub time: f64,
    seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> Scheduled<E> {
    /// The pop order: this event against one keyed `(time, seq)` —
    /// earlier time first, ties by insertion order (FIFO).
    fn key_cmp(&self, time: f64, seq: u64) -> Ordering {
        self.time.total_cmp(&time).then(self.seq.cmp(&seq))
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.key_cmp(self.time, self.seq)
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event queue driving a simulation.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// FIFO lanes, created on first use. Each is sorted by
    /// `(time, seq)`: `schedule_on` appends only at or after the tail's
    /// time, and `seq` only grows.
    lanes: Vec<VecDeque<Scheduled<E>>>,
    next_seq: u64,
    now: f64,
    /// Order oracle of debug builds (empty in release builds): the key
    /// of every pending event, wherever it is stored — heap, lane, or
    /// reserved with the caller.
    shadow: BinaryHeap<Scheduled<()>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue at time zero with heap space for `capacity`
    /// events, so a caller that knows how many it is about to schedule
    /// skips the doubling reallocations.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            lanes: Vec::new(),
            next_seq: 0,
            now: 0.0,
            shadow: BinaryHeap::new(),
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The door every event passes, wherever it is stored: refuses NaN
    /// and the past, and hands out the next sequence number.
    ///
    /// Called on its own it gives an event the caller stores itself
    /// its place in the order. The caller keeps such reserved events in
    /// `(time, seq)` order and, when [`EventQueue::pop_before`] declines
    /// to pop ahead of the earliest, calls [`EventQueue::advance_to`]
    /// and handles it.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current time.
    pub(crate) fn reserve(&mut self, time: f64) -> u64 {
        assert!(!time.is_nan(), "event time is NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if cfg!(debug_assertions) {
            self.shadow.push(Scheduled {
                time,
                seq,
                event: (),
            });
        }
        seq
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current time.
    pub fn schedule(&mut self, time: f64, event: E) {
        let seq = self.reserve(time);
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Schedules `event` after a delay from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is NaN. (`NaN.max(0.0)` is `0.0`, so without
    /// the explicit check a NaN delay would silently schedule at
    /// `now` instead of being rejected.)
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(!delay.is_nan(), "event time is NaN");
        let now = self.now;
        self.schedule(now + delay.max(0.0), event);
    }

    /// Schedules `event` at absolute time `time` on FIFO lane `lane`:
    /// the same event, popping at the same point, as
    /// [`EventQueue::schedule`] would give — stored in O(1) when `time`
    /// is not before the last event still on the lane, and on the heap
    /// otherwise. Worth it for a stream whose times mostly rise. Lanes
    /// are small indices; every `pop` looks at each lane's head.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current time.
    pub fn schedule_on(&mut self, lane: usize, time: f64, event: E) {
        let seq = self.reserve(time);
        let s = Scheduled { time, seq, event };
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let lane = &mut self.lanes[lane];
        match lane.back() {
            Some(tail) if time.total_cmp(&tail.time).is_lt() => self.heap.push(s),
            _ => lane.push_back(s),
        }
    }

    /// Pops the earliest stored event, advancing the clock.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let from = self.head()?.0;
        Some(self.take(from))
    }

    /// Pops the earliest stored event if it comes before the caller's
    /// earliest reserved event, keyed `(time, seq)`.
    pub(crate) fn pop_before(&mut self, time: f64, seq: u64) -> Option<Scheduled<E>> {
        let (from, head) = self.head()?;
        head.key_cmp(time, seq).is_lt().then(|| self.take(from))
    }

    /// Time of the earliest stored event without popping it — the
    /// merge point when two queues (e.g. a serving front end and the
    /// cluster it feeds) advance in lockstep.
    pub fn next_time(&self) -> Option<f64> {
        self.head().map(|(_, s)| s.time)
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True if no stored events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }

    /// The earliest stored event and where it sits: `Some(lane)`, or
    /// `None` for the heap.
    fn head(&self) -> Option<(Option<usize>, &Scheduled<E>)> {
        let mut best = self.heap.peek().map(|s| (None, s));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(s) = lane.front() {
                if best.is_none_or(|(_, b)| s.key_cmp(b.time, b.seq).is_lt()) {
                    best = Some((Some(i), s));
                }
            }
        }
        best
    }

    /// Removes the head of `from` (as [`EventQueue::head`] named it).
    fn take(&mut self, from: Option<usize>) -> Scheduled<E> {
        let s = match from {
            Some(lane) => self.lanes[lane].pop_front(),
            None => self.heap.pop(),
        }
        .expect("head() saw an event there");
        self.advance_to(s.time, s.seq);
        s
    }

    /// The event keyed `(time, seq)` leaves the pending set — popped
    /// from storage here, or a reserved one its owner is about to
    /// handle. The clock moves to it, and in debug builds the order
    /// oracle confirms it is the earliest of everything pending.
    pub(crate) fn advance_to(&mut self, time: f64, seq: u64) {
        self.now = time;
        if cfg!(debug_assertions) {
            let first = self.shadow.pop().expect("an event left an empty queue");
            debug_assert!(
                first.time.to_bits() == time.to_bits() && first.seq == seq,
                "event ({time}, {seq}) left the queue ahead of ({}, {})",
                first.time,
                first.seq
            );
        }
    }
}

/// A shard-partitioned event queue with a deterministic cross-shard
/// merge — the planet-scale sibling of [`EventQueue`].
///
/// Events are keyed to a *shard* (a pool, cell, or cluster id) and
/// stored in per-shard heaps, but tie-breaking stays **global**: every
/// schedule draws one monotonically increasing sequence number shared
/// by all shards, and `pop` returns the globally earliest
/// `(time, seq)` pair. Partitioning a totally ordered set never
/// changes its minimum, so the pop order is provably identical for
/// *any* shard count — including 1, where the queue degenerates to a
/// plain [`EventQueue`]. That invariant is what lets a `RegionSim`
/// shard its event flow by cell and still replay byte-identically;
/// `tests/properties.rs` pins it.
#[derive(Debug)]
pub struct ShardedEventQueue<E> {
    shards: Vec<BinaryHeap<Scheduled<E>>>,
    next_seq: u64,
    now: f64,
    len: usize,
}

impl<E> ShardedEventQueue<E> {
    /// An empty queue at time zero with `shards` partitions (at least
    /// one; a shard count of 0 is promoted to 1).
    pub fn new(shards: usize) -> Self {
        ShardedEventQueue {
            shards: (0..shards.max(1)).map(|_| BinaryHeap::new()).collect(),
            next_seq: 0,
            now: 0.0,
            len: 0,
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `event` at absolute time `time` on the shard keyed by
    /// `key` (wrapped modulo the shard count, so any stable cell id
    /// works as a key).
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current time —
    /// either would corrupt the cross-shard merge order.
    pub fn schedule(&mut self, key: usize, time: f64, event: E) {
        assert!(!time.is_nan(), "event time is NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        let shard = key % self.shards.len();
        self.shards[shard].push(Scheduled {
            time,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
        self.len += 1;
    }

    /// Schedules `event` on shard `key` after a delay from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is NaN (see [`EventQueue::schedule_in`]).
    pub fn schedule_in(&mut self, key: usize, delay: f64, event: E) {
        assert!(!delay.is_nan(), "event time is NaN");
        let now = self.now;
        self.schedule(key, now + delay.max(0.0), event);
    }

    /// Pops the globally earliest event (earliest time; ties broken by
    /// the global schedule order), advancing the clock. Returns the
    /// shard it came from alongside the event.
    pub fn pop(&mut self) -> Option<(usize, Scheduled<E>)> {
        // The cross-shard merge: scan each shard head for the smallest
        // (time, seq). `Scheduled::cmp` is reversed for the max-heap,
        // so the *largest* head under that order is the earliest event;
        // seq numbers are globally unique, so there are no true ties.
        let shard = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.peek().map(|s| (i, s)))
            .max_by(|(_, a), (_, b)| a.cmp(b))?
            .0;
        let s = self.shards[shard].pop()?;
        self.now = s.time;
        self.len -= 1;
        Some((shard, s))
    }

    /// Time of the globally earliest pending event without popping.
    pub fn next_time(&self) -> Option<f64> {
        self.shards
            .iter()
            .filter_map(|h| h.peek().map(|s| s.time))
            .min_by(f64::total_cmp)
    }

    /// Number of pending events across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events remain on any shard.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "c");
        q.schedule(1.0, "a");
        q.schedule(3.0, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        q.schedule(2.0, 1);
        q.schedule(2.0, 2);
        q.schedule(2.0, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn next_time_peeks_without_advancing() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(5.0, "b");
        q.schedule(2.0, "a");
        assert_eq!(q.next_time(), Some(2.0));
        assert_eq!(q.now(), 0.0, "peek must not advance the clock");
        q.pop();
        assert_eq!(q.next_time(), Some(5.0));
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(4.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 4.0);
        q.schedule_in(1.5, ());
        let s = q.pop().unwrap();
        assert!((s.time - 5.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn no_time_travel() {
        let mut q = EventQueue::new();
        q.schedule(10.0, ());
        q.pop();
        q.schedule(5.0, ());
    }

    #[test]
    #[should_panic(expected = "time is NaN")]
    fn nan_time_is_rejected() {
        // A NaN time would float to an arbitrary heap position under
        // total_cmp and silently corrupt the merge order downstream —
        // it must be refused at the door.
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "time is NaN")]
    fn nan_delay_is_rejected() {
        let mut q = EventQueue::new();
        q.schedule_in(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "event time is NaN")]
    fn lane_nan_time_is_rejected() {
        let mut q = EventQueue::new();
        q.schedule_on(0, f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn lane_no_time_travel() {
        // The door check reads the queue's clock, not the lane's tail.
        let mut q = EventQueue::new();
        q.schedule(10.0, ());
        q.pop();
        q.schedule_on(1, 5.0, ());
    }

    #[test]
    fn lanes_hold_rising_times_and_send_the_rest_to_the_heap() {
        let mut q = EventQueue::new();
        q.schedule_on(0, 3.0, "a");
        q.schedule_on(0, 3.0, "b"); // a tie with the tail still appends
        q.schedule_on(0, 2.0, "c"); // before the tail: heap
        q.schedule_on(2, 1.0, "d"); // lanes 1 and 2 appear on demand
        q.schedule(3.0, "e");
        assert_eq!(
            (q.heap.len(), q.lanes[0].len(), q.lanes[2].len()),
            (2, 2, 1)
        );
        assert_eq!((q.len(), q.is_empty()), (5, false));
        assert_eq!(q.next_time(), Some(1.0));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["d", "c", "a", "b", "e"]);
        assert!(q.is_empty());
        // Once the late event has left, the lane takes earlier times again.
        q.schedule_on(0, 3.5, "f");
        assert_eq!(q.lanes[0].len(), 1);
    }

    #[test]
    fn reserved_events_interleave_by_time_then_sequence() {
        let mut q = EventQueue::new();
        let first = q.reserve(2.0);
        q.schedule(2.0, "queued");
        q.schedule(1.0, "early");
        assert_eq!(first, 0);
        // Stored events ahead of the reserved one pop; a tie goes to
        // the lower sequence number, which is the reserved event's.
        assert_eq!(q.pop_before(2.0, first).map(|s| s.event), Some("early"));
        assert!(q.pop_before(2.0, first).is_none());
        assert_eq!(q.now(), 1.0, "declining to pop leaves the clock alone");
        q.advance_to(2.0, first);
        assert_eq!(q.now(), 2.0);
        assert_eq!(q.pop().map(|s| s.event), Some("queued"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "left the queue ahead of")]
    fn the_order_oracle_catches_an_event_handled_out_of_turn() {
        let mut q = EventQueue::new();
        let late = q.reserve(5.0);
        q.schedule(1.0, ());
        q.advance_to(5.0, late);
    }

    vcu_rng::prop_cases! {
        /// Lanes and reservations are storage, never order: any
        /// interleaving of `schedule`, `schedule_on` over 1–4 lanes
        /// (times tie-heavy and freely non-monotone, so lanes both
        /// append and fall back) and pops, over a batch of events
        /// reserved up front and walked with a cursor, yields exactly
        /// the `(time, event)` sequence of a heap-only queue fed the
        /// same calls through plain `schedule`.
        #[cases(200)]
        fn lanes_and_reservations_pop_like_a_plain_heap(rng) {
            let lanes = rng.gen_range(1usize..=4);
            let mut plain = EventQueue::new();
            let mut q = EventQueue::new();
            // Half-second grid: most times collide with another.
            let tick = |rng: &mut vcu_rng::Rng, span: u32| rng.gen_range(0..span) as f64 * 0.5;
            let mut next_id = 0u32;
            let mut reserved: Vec<(f64, u64, u32)> = (0..rng.gen_range(0usize..24))
                .map(|_| {
                    let t = tick(rng, 40);
                    plain.schedule(t, next_id);
                    next_id += 1;
                    (t, q.reserve(t), next_id - 1)
                })
                .collect();
            reserved.sort_by(|a, b| a.0.total_cmp(&b.0)); // stable
            let mut cursor = reserved.into_iter().peekable();
            let mut pop = |q: &mut EventQueue<u32>| match cursor.peek().copied() {
                Some((t, seq, id)) => Some(match q.pop_before(t, seq) {
                    Some(s) => (s.time, s.event),
                    None => {
                        q.advance_to(t, seq);
                        cursor.next();
                        (t, id)
                    }
                }),
                None => q.pop().map(|s| (s.time, s.event)),
            };
            for _ in 0..rng.gen_range(50usize..400) {
                if rng.gen_bool(0.55) {
                    let span = if rng.gen_bool(0.2) { 60 } else { 6 };
                    let t = plain.now() + tick(rng, span);
                    plain.schedule(t, next_id);
                    match rng.gen_range(0..=lanes) {
                        0 => q.schedule(t, next_id),
                        lane => q.schedule_on(lane - 1, t, next_id),
                    }
                    next_id += 1;
                } else {
                    assert_eq!(pop(&mut q), plain.pop().map(|s| (s.time, s.event)));
                    assert_eq!(q.now(), plain.now());
                }
            }
            while let Some(expected) = plain.pop() {
                assert_eq!(pop(&mut q), Some((expected.time, expected.event)));
            }
            assert_eq!(pop(&mut q), None);
            assert!(q.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "time is NaN")]
    fn sharded_nan_time_is_rejected() {
        let mut q = ShardedEventQueue::new(4);
        q.schedule(0, f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn sharded_no_time_travel() {
        // Past events must be rejected even when they target a shard
        // whose own head is further behind than the global clock.
        let mut q = ShardedEventQueue::new(2);
        q.schedule(0, 10.0, ());
        q.pop();
        q.schedule(1, 5.0, ());
    }

    #[test]
    fn sharded_merge_matches_single_queue_for_any_shard_count() {
        // The tentpole invariant in miniature: the same schedule
        // stream pops in the same global (time, seq) order whether it
        // lands in 1, 3, or 8 shards.
        let schedule: Vec<(usize, f64, u32)> = (0..200u32)
            .map(|i| {
                let t = ((i * 37) % 50) as f64 * 0.5; // plenty of time ties
                (i as usize % 7, t, i)
            })
            .collect();
        let reference: Vec<(f64, u32)> = {
            let mut q = EventQueue::new();
            for &(_, t, ev) in &schedule {
                q.schedule(t, ev);
            }
            std::iter::from_fn(|| q.pop().map(|s| (s.time, s.event))).collect()
        };
        for shards in [1, 3, 8] {
            let mut q = ShardedEventQueue::new(shards);
            for &(key, t, ev) in &schedule {
                q.schedule(key, t, ev);
            }
            assert_eq!(q.len(), schedule.len());
            let order: Vec<(f64, u32)> =
                std::iter::from_fn(|| q.pop().map(|(_, s)| (s.time, s.event))).collect();
            assert_eq!(
                order, reference,
                "{shards}-shard merge diverged from the single queue"
            );
        }
    }

    #[test]
    fn sharded_pop_reports_the_owning_shard() {
        let mut q = ShardedEventQueue::new(3);
        q.schedule(2, 1.0, "a");
        q.schedule(7, 2.0, "b"); // 7 % 3 == 1
        let (s0, e0) = q.pop().unwrap();
        let (s1, e1) = q.pop().unwrap();
        assert_eq!((s0, e0.event), (2, "a"));
        assert_eq!((s1, e1.event), (1, "b"));
        assert_eq!(q.now(), 2.0);
        assert!(q.is_empty());
    }

    #[test]
    fn sharded_next_time_is_the_global_minimum() {
        let mut q = ShardedEventQueue::new(4);
        assert_eq!(q.next_time(), None);
        q.schedule(0, 9.0, ());
        q.schedule(3, 4.0, ());
        q.schedule(1, 6.0, ());
        assert_eq!(q.next_time(), Some(4.0));
        q.pop();
        assert_eq!(q.next_time(), Some(6.0));
    }
}
