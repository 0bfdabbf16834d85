//! Bucketed timing wheel (calendar queue): the simulator's event store.
//!
//! The classic binary-heap event queue pays `O(log n)` per operation with a
//! comparison on every sift step. Discovery workloads are strongly
//! *time-local*: almost every event is scheduled within a few microseconds of
//! the current time (link propagation, serialization delay, switch latency),
//! with a thin tail of long timers (training, agent timeouts, staggered
//! activations). A calendar queue exploits that shape:
//!
//! * events within the wheel *horizon* (bucket width × bucket count) go into
//!   a ring of unsorted buckets — `O(1)` insert;
//! * the bucket currently being drained is kept in a small binary heap (the
//!   *active* set), so intra-bucket ordering costs `O(log b)` where `b` is
//!   the bucket population, not the whole queue;
//! * events beyond the horizon go to an overflow heap and are pulled in as
//!   the wheel rotates past their bucket;
//! * an occupancy bitmap (one bit per bucket) lets an empty stretch of the
//!   calendar be skipped in a handful of word scans instead of bucket by
//!   bucket.
//!
//! Entries are ordered by [`EventKey`] — `(time, origin, seq)` — the
//! deterministic total order of [`crate::Simulator`]. The wheel does not
//! support cancellation; nothing built on it cancels (the fabric's retry
//! machinery re-checks state on fire instead of descheduling).

use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Deterministic total order on events: lexicographic
/// `(time, origin, seq)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Firing time.
    pub time: SimTime,
    /// Rank whose dispatch scheduled the event
    /// ([`crate::EXTERNAL_RANK`] if none).
    pub origin: u32,
    /// Per-origin schedule sequence number.
    pub seq: u32,
}

/// Default bucket width: 2^18 ps ≈ 262 ns — a few serialization delays.
pub const DEFAULT_BUCKET_SHIFT: u32 = 18;
/// Default bucket count (must be a power of two): horizon ≈ 1.07 ms.
pub const DEFAULT_BUCKETS: usize = 4096;

/// A `(key, value)` entry ordered by key alone, reversed so that
/// `BinaryHeap` acts as a min-heap.
struct Entry<T> {
    key: EventKey,
    val: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key) // reversed: BinaryHeap is a max-heap
    }
}

/// A calendar queue over `(EventKey, T)` pairs.
///
/// `T` is opaque payload (the simulator stores `(rank, event)`).
pub struct TimingWheel<T> {
    /// Ring of future buckets. `slots[b & mask]` holds entries whose bucket
    /// index is the unique value congruent to `b` in `(cur, cur + nbuckets)`.
    slots: Vec<Vec<Entry<T>>>,
    /// Occupancy bitmap over `slots` (64 buckets per word).
    occ: Vec<u64>,
    /// Entries in the current bucket, ordered by key.
    active: BinaryHeap<Entry<T>>,
    /// Entries beyond the ring horizon.
    overflow: BinaryHeap<Entry<T>>,
    /// Absolute index of the bucket `active` is draining.
    cur: u64,
    /// log2 of the bucket width in picoseconds.
    shift: u32,
    /// `slots.len() - 1` (bucket count is a power of two).
    mask: u64,
    /// Live entry count across active + ring + overflow.
    len: usize,
    /// Largest key popped so far (push-order sanity checks).
    last_pop: EventKey,
}

impl<T> TimingWheel<T> {
    /// A wheel with the default geometry (262 ns × 4096 buckets ≈ 1.07 ms
    /// horizon).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_BUCKET_SHIFT, DEFAULT_BUCKETS)
    }

    /// A wheel with explicit geometry. `buckets` must be a power of two.
    pub fn with_geometry(bucket_shift: u32, buckets: usize) -> Self {
        assert!(
            buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        let mut slots = Vec::with_capacity(buckets);
        slots.resize_with(buckets, Vec::new);
        TimingWheel {
            slots,
            occ: vec![0u64; buckets.div_ceil(64)],
            active: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cur: 0,
            shift: bucket_shift,
            mask: buckets as u64 - 1,
            len: 0,
            last_pop: EventKey {
                time: SimTime::ZERO,
                origin: 0,
                seq: 0,
            },
        }
    }

    #[inline]
    fn bucket_of(&self, key: &EventKey) -> u64 {
        key.time.as_ps() >> self.shift
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry. Keys must not precede the last *popped* key; the
    /// simulator guarantees this because event times never precede the time of
    /// the event being dispatched. (`cur` may sit arbitrarily far ahead
    /// after a peek skipped an empty stretch — a late push simply joins the
    /// active heap and pops first.)
    pub fn push(&mut self, key: EventKey, val: T) {
        let b = self.bucket_of(&key);
        debug_assert!(
            key >= self.last_pop,
            "timing wheel key precedes the last popped key"
        );
        self.len += 1;
        if b <= self.cur {
            self.active.push(Entry { key, val });
        } else if b - self.cur <= self.mask {
            let slot = (b & self.mask) as usize;
            self.slots[slot].push(Entry { key, val });
            self.occ[slot / 64] |= 1u64 << (slot % 64);
        } else {
            self.overflow.push(Entry { key, val });
        }
    }

    /// Smallest pending key, advancing the wheel as needed.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        if self.ensure_active() {
            self.active.peek().map(|e| e.key)
        } else {
            None
        }
    }

    /// Pops the entry with the smallest key.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        if !self.ensure_active() {
            return None;
        }
        let e = self
            .active
            .pop()
            .expect("ensure_active guarantees an entry");
        self.len -= 1;
        self.last_pop = e.key;
        Some((e.key, e.val))
    }

    /// Advances `cur` until `active` is non-empty (or the wheel is drained).
    fn ensure_active(&mut self) -> bool {
        loop {
            if !self.active.is_empty() {
                return true;
            }
            if self.len == 0 {
                return false;
            }
            // Find the next non-empty bucket: the nearest occupied ring slot
            // and the overflow head's bucket compete.
            let ring_next = self.next_occupied();
            let ov_next = self.overflow.peek().map(|e| self.bucket_of(&e.key));
            let next = match (ring_next, ov_next) {
                (Some(r), Some(o)) => r.min(o),
                (Some(r), None) => r,
                (None, Some(o)) => o,
                (None, None) => unreachable!("len > 0 but no bucket occupied"),
            };
            self.cur = next;
            let slot = (self.cur & self.mask) as usize;
            if self.occ[slot / 64] & (1u64 << (slot % 64)) != 0 {
                for e in self.slots[slot].drain(..) {
                    debug_assert_eq!(e.key.time.as_ps() >> self.shift, next);
                    self.active.push(e);
                }
                self.occ[slot / 64] &= !(1u64 << (slot % 64));
            }
            // Pull overflow entries that have rotated into the current bucket.
            while let Some(head) = self.overflow.peek() {
                if self.bucket_of(&head.key) == self.cur {
                    let e = self.overflow.pop().expect("peeked");
                    self.active.push(e);
                } else {
                    break;
                }
            }
        }
    }

    /// Absolute index of the nearest occupied ring slot strictly after
    /// `cur`, scanning the bitmap one word at a time (wrapping).
    fn next_occupied(&self) -> Option<u64> {
        let start = ((self.cur + 1) & self.mask) as usize;
        let mut word = start / 64;
        let words = self.occ.len();
        // First (partial) word: bits at or after `start`.
        let mut bits = self.occ[word] & (!0u64 << (start % 64));
        let mut scanned = 0usize;
        loop {
            if bits != 0 {
                let slot = (word * 64 + bits.trailing_zeros() as usize) as u64;
                // Distance from cur+1 going forward, wrapping.
                let d = (slot.wrapping_sub(self.cur + 1)) & self.mask;
                return Some(self.cur + 1 + d);
            }
            scanned += 1;
            if scanned > words {
                return None;
            }
            word = (word + 1) % words;
            bits = self.occ[word];
            if scanned == words {
                // Final wrap: only bits strictly before `start` remain
                // unexamined in this word.
                if start.is_multiple_of(64) {
                    return None;
                }
                bits &= (1u64 << (start % 64)) - 1;
            }
        }
    }
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn key(ps: u64, origin: u32, seq: u32) -> EventKey {
        EventKey {
            time: SimTime::from_ps(ps),
            origin,
            seq,
        }
    }

    #[test]
    fn pops_in_key_order_within_and_across_buckets() {
        let mut w: TimingWheel<u32> = TimingWheel::with_geometry(4, 8); // 16 ps × 8
        let keys = [
            key(3, 1, 0),
            key(3, 0, 2),
            key(17, 0, 0),
            key(1000, 2, 5), // overflow (horizon = 128 ps)
            key(40, 0, 1),
            key(3, 0, 1),
        ];
        for (i, k) in keys.iter().enumerate() {
            w.push(*k, i as u32);
        }
        assert_eq!(w.len(), 6);
        let mut popped = Vec::new();
        while let Some((k, _)) = w.pop() {
            popped.push(k);
        }
        let mut sorted = keys.to_vec();
        sorted.sort();
        assert_eq!(popped, sorted);
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        let mut rng = SimRng::new(0x57EE1);
        let mut wheel: TimingWheel<u64> = TimingWheel::with_geometry(6, 64);
        let mut reference: Vec<EventKey> = Vec::new();
        let mut now = 0u64;
        let mut seq = 0u32;
        let mut last_pop = key(0, 0, 0);
        for round in 0..2000u64 {
            // Push a burst of events at or after `now`, mixing near and far.
            let burst = 1 + (rng.gen_below(4) as usize);
            for _ in 0..burst {
                let dt = if rng.gen_bool(0.9) {
                    rng.gen_below(500) // near: within a few buckets
                } else {
                    rng.gen_below(1_000_000) // far: deep overflow
                };
                let mut k = key(now + dt, (round % 5) as u32, seq);
                if k < last_pop {
                    // Respect the push invariant (keys never precede the
                    // last popped key), as the simulator does.
                    k.time = SimTime::from_ps(last_pop.time.as_ps() + 1);
                }
                seq += 1;
                wheel.push(k, round);
                reference.push(k);
            }
            // Pop one or two.
            for _ in 0..(1 + rng.gen_below(2)) {
                let got = wheel.pop().map(|(k, _)| k);
                reference.sort();
                let want = if reference.is_empty() {
                    None
                } else {
                    Some(reference.remove(0))
                };
                assert_eq!(got, want, "divergence at round {round}");
                if let Some(k) = got {
                    now = k.time.as_ps();
                    last_pop = k;
                }
            }
        }
        // Drain the rest.
        reference.sort();
        for want in reference {
            assert_eq!(wheel.pop().map(|(k, _)| k), Some(want));
        }
        assert_eq!(wheel.pop().map(|(k, _)| k), None);
    }

    #[test]
    fn peek_matches_pop_and_len_tracks() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        assert_eq!(w.peek_key(), None);
        w.push(key(5_000_000, 0, 0), ()); // 5 µs: beyond one bucket
        w.push(key(10, 0, 1), ());
        assert_eq!(w.len(), 2);
        assert_eq!(w.peek_key(), Some(key(10, 0, 1)));
        assert_eq!(w.pop().map(|(k, _)| k), Some(key(10, 0, 1)));
        assert_eq!(w.peek_key(), Some(key(5_000_000, 0, 0)));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop().map(|(k, _)| k), Some(key(5_000_000, 0, 0)));
        assert!(w.is_empty());
    }

    #[test]
    fn same_bucket_push_after_pop_lands_in_active() {
        let mut w: TimingWheel<u8> = TimingWheel::with_geometry(10, 16); // 1024 ps
        w.push(key(100, 0, 0), 1);
        assert_eq!(w.pop().map(|(_, v)| v), Some(1));
        // Same bucket as the popped event, later key: must still fire.
        w.push(key(300, 0, 1), 2);
        w.push(key(200, 1, 0), 3);
        assert_eq!(w.pop().map(|(_, v)| v), Some(3));
        assert_eq!(w.pop().map(|(_, v)| v), Some(2));
    }

    #[test]
    fn deep_overflow_drains_after_long_gap() {
        let mut w: TimingWheel<u32> = TimingWheel::with_geometry(4, 8);
        // Horizon is 128 ps; schedule a far timeout and a near event.
        w.push(key(7, 0, 0), 0);
        w.push(key(1 << 30, 0, 1), 1);
        w.push(key((1 << 30) + 3, 0, 2), 2);
        assert_eq!(w.pop().map(|(_, v)| v), Some(0));
        assert_eq!(w.pop().map(|(_, v)| v), Some(1));
        assert_eq!(w.pop().map(|(_, v)| v), Some(2));
        assert_eq!(w.pop().map(|(_, v)| v), None);
    }
}
