//! Sim-clock time-series ring buffers.
//!
//! A [`TimeSeries`] holds `(time_s, value)` points in a fixed-capacity
//! ring: recording is O(1), memory is bounded, and when the ring wraps
//! the *oldest* points are dropped (a fleet dashboard cares about the
//! recent window; the drop count is reported so truncation is never
//! silent). Time comes from the caller's simulation clock — this crate
//! never reads wall-clock time.

/// Default ring capacity (points) for registry-created series.
pub const DEFAULT_SERIES_CAPACITY: usize = 4096;

/// A bounded time-series of `(time_s, value)` samples.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    /// Ring storage, `head` is the index of the oldest point once full.
    points: Vec<(f64, f64)>,
    head: usize,
    capacity: usize,
    /// Total points ever recorded (≥ `len`).
    recorded: u64,
}

impl TimeSeries {
    /// An empty series holding at most `capacity` points.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "time series needs capacity");
        TimeSeries {
            points: Vec::new(),
            head: 0,
            capacity,
            recorded: 0,
        }
    }

    /// Records a point at simulation time `time_s`.
    pub fn record(&mut self, time_s: f64, value: f64) {
        self.recorded += 1;
        if self.points.len() < self.capacity {
            self.points.push((time_s, value));
        } else {
            self.points[self.head] = (time_s, value);
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Points currently held.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points are held.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points dropped to the ring bound.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.points.len() as u64
    }

    /// Iterates points oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.points.len();
        (0..n).map(move |i| self.points[(self.head + i) % n.max(1)])
    }

    /// The points oldest → newest as a vector.
    pub fn to_vec(&self) -> Vec<(f64, f64)> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut s = TimeSeries::new(8);
        for i in 0..5 {
            s.record(i as f64, (i * 10) as f64);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.dropped(), 0);
        let v = s.to_vec();
        assert_eq!(v[0], (0.0, 0.0));
        assert_eq!(v[4], (4.0, 40.0));
    }

    #[test]
    fn ring_drops_oldest() {
        let mut s = TimeSeries::new(4);
        for i in 0..10 {
            s.record(i as f64, i as f64);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.dropped(), 6);
        let v = s.to_vec();
        assert_eq!(v.first().unwrap().0, 6.0, "oldest surviving point");
        assert_eq!(v.last().unwrap().0, 9.0, "newest point");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        TimeSeries::new(0);
    }
}
