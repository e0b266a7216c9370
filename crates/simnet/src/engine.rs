//! Deterministic discrete-event kernel.
//!
//! [`CalendarQueue`] is a bucketed (calendar-queue) future-event list.
//! Events hash into day-wide buckets by timestamp, so a pop scans one
//! short bucket instead of sifting an `O(log n)` heap; bucket count and
//! width resize deterministically from the queue contents alone. It is the
//! scheduler behind [`EventQueue`] and the fabric's completion calendar.
//!
//! Events pop in `(time, insertion order)` order: equal-time events
//! fire in insertion order (a strictly monotone sequence number breaks
//! ties), which is what makes whole-simulation runs reproducible
//! bit-for-bit. The payload type is generic so higher layers (the cluster
//! engine) define their own event enums.

use corral_model::SimTime;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// One scheduled item in a [`CalendarQueue`].
#[derive(Debug)]
struct CalItem<E> {
    time: f64,
    seq: u64,
    payload: E,
}

/// Minimum bucket count; the queue never shrinks below this.
const MIN_BUCKETS: usize = 16;
/// Floor on the bucket width so day indices stay well inside `u64`.
const MIN_WIDTH: f64 = 1e-6;

/// A bucketed (calendar-queue) priority queue over non-negative `f64`
/// timestamps, popping in exact `(time, insertion order)` order.
///
/// Items land in the bucket `floor(time / width) % nbuckets`; a pop scans
/// the current day's bucket for its minimum, advancing day by day through
/// empty buckets and falling back to a global scan after a full wrap (so
/// sparse far-future schedules stay `O(n)` worst case, not unbounded).
/// Bucket count doubles/halves and the width is re-derived from the live
/// contents when occupancy drifts — both decisions depend only on the
/// queued items, never on wall-clock, so runs stay deterministic.
///
/// Non-finite timestamps (`+inf`) are parked aside and surface, in
/// insertion order, only after every finite item has been popped — the
/// same order a comparison-based queue gives them.
#[derive(Debug)]
pub struct CalendarQueue<E> {
    buckets: Vec<Vec<CalItem<E>>>,
    width: f64,
    /// Lower bound on `day_of(item.time)` over all finite items; advanced
    /// by pops, reset by rebuilds.
    day: u64,
    finite: usize,
    park: VecDeque<CalItem<E>>,
    seq: u64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1.0,
            day: 0,
            finite: 0,
            park: VecDeque::new(),
            seq: 0,
        }
    }

    #[inline]
    fn day_of(&self, time: f64) -> u64 {
        // `as` saturates, so astronomically late times all share the last
        // day; the in-bucket min scan keeps ordering exact regardless.
        (time / self.width) as u64
    }

    /// Number of pending items (finite and parked).
    pub fn len(&self) -> usize {
        self.finite + self.park.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `payload` at `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or negative.
    pub fn push(&mut self, time: f64, payload: E) {
        assert!(!time.is_nan(), "scheduled event at NaN time");
        assert!(time >= 0.0, "scheduled event at negative time {time}");
        let seq = self.seq;
        self.seq += 1;
        let item = CalItem { time, seq, payload };
        if !time.is_finite() {
            self.park.push_back(item);
            return;
        }
        let day = self.day_of(time);
        // A push may land before the lazily advanced day cursor would
        // ever look (the cursor only moves forward); pull it back so the
        // new item is found. Callers never push before the last popped
        // time, so this stays monotone per pop.
        if day < self.day {
            self.day = day;
        }
        let nb = self.buckets.len();
        self.buckets[(day % nb as u64) as usize].push(item);
        self.finite += 1;
        if self.finite > 2 * nb {
            self.rebuild(nb * 2);
        }
    }

    /// Locates the minimum `(time, seq)` finite item: `(bucket, index)`.
    fn locate_min(&self) -> Option<(usize, usize)> {
        if self.finite == 0 {
            return None;
        }
        let nb = self.buckets.len() as u64;
        let mut day = self.day;
        for _ in 0..nb {
            let b = (day % nb) as usize;
            let mut best: Option<(usize, f64, u64)> = None;
            for (i, it) in self.buckets[b].iter().enumerate() {
                if self.day_of(it.time) != day {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, t, s)) => match it.time.total_cmp(&t) {
                        Ordering::Less => true,
                        Ordering::Equal => it.seq < s,
                        Ordering::Greater => false,
                    },
                };
                if better {
                    best = Some((i, it.time, it.seq));
                }
            }
            if let Some((i, _, _)) = best {
                return Some((b, i));
            }
            day = day.saturating_add(1);
        }
        // Full wrap without a hit: the next item is over a calendar year
        // away. Global scan.
        let mut best: Option<(usize, usize, f64, u64)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, it) in bucket.iter().enumerate() {
                let better = match best {
                    None => true,
                    Some((_, _, t, s)) => match it.time.total_cmp(&t) {
                        Ordering::Less => true,
                        Ordering::Equal => it.seq < s,
                        Ordering::Greater => false,
                    },
                };
                if better {
                    best = Some((b, i, it.time, it.seq));
                }
            }
        }
        best.map(|(b, i, _, _)| (b, i))
    }

    /// Timestamp and payload of the next item without removing it.
    pub fn peek(&self) -> Option<(f64, &E)> {
        match self.locate_min() {
            Some((b, i)) => {
                let it = &self.buckets[b][i];
                Some((it.time, &it.payload))
            }
            None => self.park.front().map(|it| (it.time, &it.payload)),
        }
    }

    /// Removes and returns the next item.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        match self.locate_min() {
            Some((b, i)) => {
                let it = self.buckets[b].swap_remove(i);
                self.finite -= 1;
                self.day = self.day_of(it.time);
                let nb = self.buckets.len();
                if nb > MIN_BUCKETS && self.finite < nb / 4 {
                    self.rebuild(nb / 2);
                }
                Some((it.time, it.payload))
            }
            None => self.park.pop_front().map(|it| (it.time, it.payload)),
        }
    }

    /// Keeps only items whose payload satisfies `f`; used to vacuum
    /// lazily invalidated entries.
    pub fn retain(&mut self, mut f: impl FnMut(&E) -> bool) {
        for bucket in &mut self.buckets {
            bucket.retain(|it| f(&it.payload));
        }
        self.park.retain(|it| f(&it.payload));
        self.finite = self.buckets.iter().map(Vec::len).sum();
        let nb = self.buckets.len();
        if nb > MIN_BUCKETS && self.finite < nb / 4 {
            self.rebuild((nb / 2).max(MIN_BUCKETS));
        }
    }

    /// Re-buckets every finite item into `nb` buckets, re-deriving the
    /// width from the live span so occupancy stays near one item per
    /// bucket-day. Purely content-driven ⇒ deterministic.
    fn rebuild(&mut self, nb: usize) {
        let mut items: Vec<CalItem<E>> = Vec::with_capacity(self.finite);
        for bucket in &mut self.buckets {
            items.append(bucket);
        }
        if self.buckets.len() != nb {
            self.buckets = (0..nb).map(|_| Vec::new()).collect();
        }
        if !items.is_empty() {
            let mut tmin = f64::INFINITY;
            let mut tmax = f64::NEG_INFINITY;
            for it in &items {
                tmin = tmin.min(it.time);
                tmax = tmax.max(it.time);
            }
            let span = tmax - tmin;
            if span > 0.0 {
                self.width = (span / items.len() as f64 * 4.0).max(MIN_WIDTH);
            }
            self.day = u64::MAX;
            for it in &items {
                self.day = self.day.min(self.day_of(it.time));
            }
        } else {
            self.day = 0;
        }
        self.finite = items.len();
        let nb64 = nb as u64;
        for it in items {
            let b = (self.day_of(it.time) % nb64) as usize;
            self.buckets[b].push(it);
        }
    }

    /// Reserved element capacity across all buckets (scratch-footprint
    /// accounting).
    pub fn footprint(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum::<usize>() + self.park.capacity()
    }
}

/// A deterministic future-event list (calendar-queue backed).
///
/// ```
/// use corral_simnet::EventQueue;
/// use corral_model::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::secs(2.0), "b");
/// q.schedule(SimTime::secs(1.0), "a");
/// q.schedule(SimTime::secs(2.0), "c"); // same time as "b": insertion order
/// assert_eq!(q.pop().unwrap(), (SimTime::secs(1.0), "a"));
/// assert_eq!(q.pop().unwrap(), (SimTime::secs(2.0), "b"));
/// assert_eq!(q.pop().unwrap(), (SimTime::secs(2.0), "c"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    cal: CalendarQueue<E>,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            cal: CalendarQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time: the timestamp of the last popped event
    /// (zero before any event fires).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is NaN or earlier than the current time (scheduling
    /// into the past is always a simulator bug).
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(!at.0.is_nan(), "scheduled event at NaN time");
        assert!(
            at.0 >= self.now.0,
            "scheduled event in the past: {} < {}",
            at,
            self.now
        );
        self.cal.push(at.0, payload);
    }

    /// Schedules `payload` `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimTime, payload: E) {
        let at = self.now + delay;
        self.schedule(at, payload);
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cal.peek().map(|(t, _)| SimTime(t))
    }

    /// Removes and returns the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, payload) = self.cal.pop()?;
        debug_assert!(t >= self.now.0);
        self.now = SimTime(t);
        Some((SimTime(t), payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cal.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.cal.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5.0), 5);
        q.schedule(SimTime(1.0), 1);
        q.schedule(SimTime(3.0), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn equal_times_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(2.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(2.0));
        // schedule_after is relative to the advanced clock.
        q.schedule_after(SimTime(1.5), ());
        assert_eq!(q.peek_time(), Some(SimTime(3.5)));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(2.0), ());
        q.pop();
        q.schedule(SimTime(1.0), ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(SimTime(f64::NAN), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime(1.0), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn resize_preserves_order() {
        // Push enough to force several grows, interleave pops to force
        // shrinks, and check the stream stays sorted by (time, seq).
        let mut q = CalendarQueue::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..500 {
            let t = (rng() % 10_000) as f64 * 0.125;
            q.push(t, i);
        }
        let mut last = -1.0;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "pop stream went backwards: {t} after {last}");
            last = t;
            popped += 1;
            if popped == 250 {
                for j in 0..100 {
                    q.push(t + j as f64, 1000 + j);
                }
            }
        }
        assert_eq!(popped, 600);
    }

    #[test]
    fn infinite_times_pop_last_in_insertion_order() {
        let mut q = CalendarQueue::new();
        q.push(f64::INFINITY, "x");
        q.push(1.0, "a");
        q.push(f64::INFINITY, "y");
        q.push(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "x", "y"]);
    }

    #[test]
    fn sparse_far_future_pops_via_global_scan() {
        let mut q = CalendarQueue::new();
        q.push(0.5, 1);
        q.push(1.0e9, 2); // over a full wrap away at width 1.0
        assert_eq!(q.pop(), Some((0.5, 1)));
        assert_eq!(q.peek().map(|(t, _)| t), Some(1.0e9));
        assert_eq!(q.pop(), Some((1.0e9, 2)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn retain_drops_and_keeps() {
        let mut q = CalendarQueue::new();
        for i in 0..50 {
            q.push(i as f64, i);
        }
        q.retain(|&i| i % 2 == 0);
        assert_eq!(q.len(), 25);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..50).step_by(2).collect::<Vec<_>>());
    }
}
