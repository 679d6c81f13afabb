//! A calendar (indexed-bucket) event queue for the simulation hot loop.
//!
//! The world's event queue used to be a `BinaryHeap<Reverse<(time, seq,
//! ev)>>`: every push and pop paid `O(log n)` comparisons plus the cache
//! misses of sifting through the heap array. Discrete-event simulation
//! has much more structure than an arbitrary priority queue workload —
//! time is monotone (events are only scheduled at or after the instant
//! being processed) and events cluster tightly around the cursor — which
//! is exactly the regime calendar queues were designed for (Brown 1988):
//! hash each event by its "day" (a fixed-width time bucket) into a
//! circular array of "year" length, keep each bucket sorted, and walk
//! the cursor day by day.
//!
//! Ordering contract (identical to the heap it replaces): events pop in
//! ascending `(time, seq)` order, where `seq` is the queue-assigned push
//! sequence number — so events scheduled for the same instant pop in
//! FIFO push order. The differential test in
//! `crates/sim/tests/calendar_differential.rs` checks this against the
//! old heap over randomized schedules.

use mirage_types::SimTime;

/// Log₂ of the bucket ("day") width in simulated nanoseconds.
///
/// 2²¹ ns ≈ 2.1 ms: a few kernel-work hops or one short wire transit per
/// day, so buckets stay nearly empty and the cursor never scans far.
const DAY_SHIFT: u32 = 21;

/// Number of buckets (one "year" of days). Power of two for mask
/// indexing; 512 days ≈ 1.07 s of simulated time per rotation.
const DAYS: usize = 512;

/// An indexed bucket queue ordered by `(SimTime, push seq)`.
///
/// Generic over the payload so tests can drive it with plain markers;
/// the world instantiates it with its event type.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// `buckets[day & (DAYS-1)]`, each sorted ascending by `(time, seq)`.
    buckets: Vec<Vec<(SimTime, u64, T)>>,
    /// Total queued events.
    len: usize,
    /// Monotone push counter: the FIFO tie-break within an instant.
    seq: u64,
    /// Time of the most recent push (meaningless while `seq` is 0).
    last_at: SimTime,
    /// Lower bound on the day of the earliest queued event. May move
    /// backwards when a push lands before the cursor (the world peeks
    /// ahead for its horizon, then schedules at `now`).
    cursor: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with all buckets preallocated.
    pub fn new() -> Self {
        Self {
            buckets: (0..DAYS).map(|_| Vec::new()).collect(),
            len: 0,
            seq: 0,
            last_at: SimTime::ZERO,
            cursor: 0,
        }
    }

    /// Queued event count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The day (bucket index in absolute time) of an instant.
    #[inline]
    fn day(at: SimTime) -> u64 {
        at.0 >> DAY_SHIFT
    }

    /// Schedules `item` at `at`; returns the sequence number assigned.
    pub fn push(&mut self, at: SimTime, item: T) -> u64 {
        self.seq += 1;
        let seq = self.seq;
        self.last_at = at;
        let day = Self::day(at);
        if day < self.cursor {
            self.cursor = day;
        }
        let bucket = &mut self.buckets[day as usize & (DAYS - 1)];
        // Insert keeping the bucket sorted by (time, seq). `seq` is
        // monotone, so inserting after every entry with time <= at keeps
        // equal-time entries in FIFO order.
        let idx = bucket.partition_point(|e| e.0 <= at);
        bucket.insert(idx, (at, seq, item));
        self.len += 1;
        seq
    }

    /// The most recently pushed event, if it is still queued: its time
    /// and its payload, which the caller may update in place. Returns
    /// `None` before the first push and once that event has popped.
    ///
    /// Nothing can sit between the most recent push and a push made now
    /// at the same instant (their sequence numbers are adjacent), so a
    /// caller may fold the new item into this one instead of queueing it.
    pub fn last_pushed_mut(&mut self) -> Option<(SimTime, &mut T)> {
        if self.seq == 0 {
            return None;
        }
        let at = self.last_at;
        let bucket = &mut self.buckets[Self::day(at) as usize & (DAYS - 1)];
        // The latest push has the highest `seq`, so among equal times it
        // sorts last: it is the final entry with time <= `at`, if queued.
        let idx = bucket.partition_point(|e| e.0 <= at).checked_sub(1)?;
        let (t, seq, item) = &mut bucket[idx];
        (*seq == self.seq).then_some((*t, item))
    }

    /// Every queued event, in no particular order (test inspection).
    #[cfg(test)]
    pub(crate) fn queued(&self) -> impl Iterator<Item = (SimTime, &T)> {
        self.buckets.iter().flatten().map(|(t, _, item)| (*t, item))
    }

    /// Advances the cursor to the day of the earliest event and returns
    /// its bucket index, or `None` when empty.
    fn seek(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        for _ in 0..DAYS {
            let idx = self.cursor as usize & (DAYS - 1);
            if let Some(&(t, _, _)) = self.buckets[idx].first() {
                // The bucket is sorted, so its front is its minimum; a
                // front from this day is the global minimum (every other
                // bucket holds only later days once this day is current).
                if Self::day(t) == self.cursor {
                    return Some(idx);
                }
            }
            self.cursor += 1;
        }
        // A whole empty year: jump straight to the earliest event.
        let min_day = self
            .buckets
            .iter()
            .filter_map(|b| b.first())
            .map(|&(t, _, _)| Self::day(t))
            .min()
            .expect("len > 0");
        self.cursor = min_day;
        Some(min_day as usize & (DAYS - 1))
    }

    /// The `(time, seq)` of the next event to pop, without removing it.
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        let idx = self.seek()?;
        self.buckets[idx].first().map(|&(t, s, _)| (t, s))
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let idx = self.seek()?;
        let ev = self.buckets[idx].remove(0);
        self.len -= 1;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(50), "b");
        q.push(SimTime(10), "a");
        q.push(SimTime(50), "c");
        assert_eq!(q.peek(), Some((SimTime(10), 2)));
        assert_eq!(q.pop().map(|(t, _, v)| (t, v)), Some((SimTime(10), "a")));
        // Same instant: FIFO by push order.
        assert_eq!(q.pop().map(|(t, _, v)| (t, v)), Some((SimTime(50), "b")));
        assert_eq!(q.pop().map(|(t, _, v)| (t, v)), Some((SimTime(50), "c")));
        assert_eq!(q.pop().map(|(t, _, v)| (t, v)), None);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_cross_year_boundaries() {
        let mut q = CalendarQueue::new();
        // > one year (512 days of 2^21 ns ≈ 1.07 s) ahead, and two
        // events one year apart that share a bucket.
        let far = SimTime(600 * (1 << DAY_SHIFT));
        let very_far = SimTime((600 + DAYS as u64) * (1 << DAY_SHIFT));
        q.push(very_far, 2u32);
        q.push(far, 1u32);
        q.push(SimTime(5), 0u32);
        assert_eq!(q.pop().map(|(_, _, v)| v), Some(0));
        assert_eq!(q.pop().map(|(_, _, v)| v), Some(1));
        assert_eq!(q.pop().map(|(_, _, v)| v), Some(2));
    }

    #[test]
    fn last_pushed_is_the_latest_queued_push() {
        let mut q = CalendarQueue::new();
        assert!(q.last_pushed_mut().is_none(), "nothing pushed yet");
        q.push(SimTime(40), 1u32);
        q.push(SimTime(40), 2u32);
        let (t, v) = q.last_pushed_mut().expect("still queued");
        assert_eq!((t, *v), (SimTime(40), 2));
        // Updating in place changes what pops.
        *v = 20;
        // An earlier instant pushed later is now the latest push, even
        // though it pops first.
        q.push(SimTime(10), 3u32);
        assert_eq!(q.last_pushed_mut().map(|(t, v)| (t, *v)), Some((SimTime(10), 3)));
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(popped, vec![3, 1, 20]);
    }

    #[test]
    fn last_pushed_is_gone_after_an_intervening_push() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(40), "wake");
        q.push(SimTime(40), "other");
        // The accessor names only the latest push; "wake" is not it.
        assert_eq!(q.last_pushed_mut().map(|(_, v)| *v), Some("other"));
        q.push(SimTime(90), "later");
        assert_eq!(q.last_pushed_mut().map(|(t, v)| (t, *v)), Some((SimTime(90), "later")));
    }

    #[test]
    fn last_pushed_is_gone_once_popped() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(5), "a");
        q.push(SimTime(5), "b");
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("a"));
        assert_eq!(q.last_pushed_mut().map(|(_, v)| *v), Some("b"));
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("b"));
        assert!(q.last_pushed_mut().is_none(), "the latest push has popped");
        // Same instant again: a fresh push is found, the popped one is not.
        q.push(SimTime(5), "c");
        assert_eq!(q.last_pushed_mut().map(|(_, v)| *v), Some("c"));
    }

    #[test]
    fn last_pushed_in_a_year_wrapped_bucket() {
        let mut q = CalendarQueue::new();
        // Three events sharing one bucket index a year apart: the latest
        // push sits between the others in the bucket's sorted order.
        let day = 1u64 << DAY_SHIFT;
        let year = DAYS as u64 * day;
        let near = SimTime(3 * day + 1);
        let mid = SimTime(3 * day + year + 1);
        let far = SimTime(3 * day + 2 * year + 1);
        q.push(far, "far");
        q.push(near, "near");
        q.push(mid, "mid");
        assert_eq!(q.last_pushed_mut().map(|(t, v)| (t, *v)), Some((mid, "mid")));
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("near"));
        assert_eq!(q.last_pushed_mut().map(|(t, v)| (t, *v)), Some((mid, "mid")));
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("mid"));
        assert!(q.last_pushed_mut().is_none(), "popped across the year boundary");
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("far"));
    }

    #[test]
    fn push_behind_peeked_cursor_is_found() {
        let mut q = CalendarQueue::new();
        let far = SimTime(100 * (1 << DAY_SHIFT));
        q.push(far, "far");
        // Peeking advances the cursor to the far event's day...
        assert_eq!(q.peek(), Some((far, 1)));
        // ...but the world may then schedule at `now`, long before it.
        q.push(SimTime(7), "near");
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("near"));
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("far"));
    }
}
