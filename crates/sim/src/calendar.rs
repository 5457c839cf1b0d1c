//! A calendar-queue event scheduler: O(1) amortized insert and pop.
//!
//! The classic discrete-event scheduler is a binary heap — O(log n)
//! per operation with n in-flight events, and every sift moves whole
//! event payloads. A calendar queue (Brown, CACM '88) exploits the
//! structure of simulation time instead: events hash into an array of
//! *day* buckets by `time >> shift` (a power-of-two bucket width), and
//! the scheduler walks the calendar day by day, draining one day at a
//! time. Insert into a future day is an append plus a min-update; the
//! day being drained is kept sorted, so pop takes its last entry.
//!
//! ## Storage
//!
//! Bucket membership is an intrusive singly-linked list threaded
//! through one shared slot slab rather than a `Vec` per bucket: a
//! freed slot returns to a free list and is reused by the next push,
//! so once the slab has grown to the peak pending-event count the
//! queue performs **zero heap allocations** regardless of how events
//! distribute over buckets.
//!
//! ## The active day
//!
//! When a day opens, its events move out of their bucket chain into
//! the *active list*, which is sorted once in descending `(time, seq)`
//! order. Pop takes the last entry — the minimum — in O(1). A push
//! into the active day binary-searches its slot by the full
//! `(time, seq)` key and inserts there, so k events sharing one
//! timestamp cost k binary searches, not k scans of the whole day.
//! Zero-gap bursts, which tie on time by the hundreds, stay cheap.
//!
//! ## Determinism
//!
//! Pops are globally ordered by the full `(time, seq)` key — exactly
//! the order a `BinaryHeap<Reverse<(time, seq)>>` produces — because:
//!
//! 1. every event due no later than the active day is in the active
//!    list: it was moved there when the day opened or pushed into it
//!    directly (a push at or before the active day always takes the
//!    active-list path);
//! 2. every event still in the wheel belongs to a strictly later day,
//!    whose times are all strictly greater than any active-list time;
//! 3. the active list is sorted by the full key, and insertion keeps
//!    it sorted.
//!
//! Point 3 uses the whole key, not only the sequence number, so the
//! order holds even when an event is pushed with an *older* sequence
//! number than events already queued at its time. A paused fleet run
//! does exactly that: it pops an event past its window limit and
//! pushes it back with its original sequence number. The unit tests
//! below check the pop order against a `BinaryHeap` on randomized
//! push/pop streams shaped like the simulator's.
//!
//! ## Overflow laps
//!
//! Days map onto buckets modulo the wheel size, so arbitrarily far
//! events need no separate overflow structure: a far-future event
//! simply shares a bucket with earlier laps and is skipped (cheaply,
//! via the per-bucket `next_day` cache) until its day comes around.
//! When a whole lap holds nothing, the scheduler jumps straight to the
//! earliest cached day instead of spinning through empty buckets.

use std::cmp::Reverse;

/// One scheduled entry: the picosecond key, the tie-breaking sequence
/// number, and a caller payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry<P> {
    time: u64,
    seq: u64,
    payload: P,
}

impl<P> Entry<P> {
    /// The pop-ordering key.
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// A slab slot: the resident entry plus the intrusive link to the next
/// slot of the same bucket (or of the free list).
#[derive(Debug, Clone, Copy)]
struct Slot<P> {
    entry: Entry<P>,
    next: u32,
}

/// Null link terminating bucket chains and the free list.
const NIL: u32 = u32::MAX;

/// A calendar-queue priority queue over `(time_ps, seq, payload)`
/// triples, popping in ascending `(time, seq)` order.
///
/// # Examples
///
/// ```
/// use lognic_sim::calendar::CalendarQueue;
///
/// let mut q = CalendarQueue::new(1_000);
/// q.push(500, 1, "b");
/// q.push(100, 2, "a");
/// q.push(500, 0, "first-at-500");
/// assert_eq!(q.pop(), Some((100, 2, "a")));
/// assert_eq!(q.pop(), Some((500, 0, "first-at-500")));
/// assert_eq!(q.pop(), Some((500, 1, "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct CalendarQueue<P> {
    /// The shared slot slab; bucket membership is linked through
    /// `Slot::next`. Grows to the peak resident-event count and is
    /// never shrunk — steady state allocates nothing.
    slots: Vec<Slot<P>>,
    /// Head of the free-slot list (`NIL` when every slot is resident).
    free: u32,
    /// Per-bucket chain head; an event with day `d = time >> shift`
    /// lives in the chain of bucket `d & mask` until its day opens.
    heads: Vec<u32>,
    /// Per-bucket minimum day among resident entries (`u64::MAX` when
    /// empty) — lets the day walk skip non-due buckets in O(1).
    next_day: Vec<u64>,
    mask: u64,
    /// log2 of the bucket width in picoseconds.
    shift: u32,
    /// The day currently being drained.
    day: u64,
    /// Every event due no later than the active day, sorted in
    /// descending `(time, seq)` order: the last entry pops next.
    active: Vec<Entry<P>>,
    /// Entries resident in the wheel (excluding `active`).
    wheel_len: usize,
    len: usize,
}

/// Initial bucket count (power of two); grows geometrically.
const INITIAL_BUCKETS: usize = 1 << 10;
/// Rebuild with twice the buckets when occupancy passes this factor.
const GROW_FACTOR: usize = 2;
/// Hard cap on the wheel size.
const MAX_BUCKETS: usize = 1 << 20;

impl<P: Copy + Eq> CalendarQueue<P> {
    /// Creates a queue tuned to an expected inter-event gap of
    /// `mean_gap_ps` picoseconds: the bucket width is the nearest
    /// power of two of four times the gap, so a handful of events
    /// share a day on average. A zero gap falls back to ~1 µs buckets
    /// (the scale of packet service times in this simulator); any
    /// estimate only affects speed, never ordering.
    pub fn new(mean_gap_ps: u64) -> Self {
        let target = mean_gap_ps.saturating_mul(4).max(1);
        // Round to the nearest power of two ≤ target, clamped to keep
        // day numbers meaningful across a u64 picosecond clock.
        let shift = (63 - target.leading_zeros()).clamp(4, 44);
        let shift = if mean_gap_ps == 0 { 20 } else { shift };
        CalendarQueue {
            slots: Vec::new(),
            free: NIL,
            heads: vec![NIL; INITIAL_BUCKETS],
            next_day: vec![u64::MAX; INITIAL_BUCKETS],
            mask: (INITIAL_BUCKETS - 1) as u64,
            shift,
            day: 0,
            active: Vec::new(),
            wheel_len: 0,
            len: 0,
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules an event. `seq` must be unique per queue (the
    /// simulator's monotonic event counter); ties at equal `(time,
    /// seq)` would otherwise pop in unspecified order.
    pub fn push(&mut self, time: u64, seq: u64, payload: P) {
        self.len += 1;
        let day = time >> self.shift;
        let entry = Entry { time, seq, payload };
        if day <= self.day {
            // Due no later than the active day: insert in key order.
            let key = entry.key();
            let at = self.active.partition_point(|e| e.key() > key);
            self.active.insert(at, entry);
            return;
        }
        let b = (day & self.mask) as usize;
        let head = self.heads[b];
        let slot = if self.free != NIL {
            let s = self.free as usize;
            self.free = self.slots[s].next;
            self.slots[s] = Slot { entry, next: head };
            s as u32
        } else {
            debug_assert!(self.slots.len() < NIL as usize, "slot index overflow");
            self.slots.push(Slot { entry, next: head });
            (self.slots.len() - 1) as u32
        };
        self.heads[b] = slot;
        if day < self.next_day[b] {
            self.next_day[b] = day;
        }
        self.wheel_len += 1;
        if self.wheel_len > GROW_FACTOR * self.heads.len() && self.heads.len() < MAX_BUCKETS {
            self.grow();
        }
    }

    /// Pops the earliest event by `(time, seq)`.
    pub fn pop(&mut self) -> Option<(u64, u64, P)> {
        if self.active.is_empty() {
            if self.wheel_len == 0 {
                return None;
            }
            self.advance();
        }
        let e = self.active.pop()?;
        self.len -= 1;
        Some((e.time, e.seq, e.payload))
    }

    /// Moves `day` forward to the next day holding events and opens it
    /// (moves its events into the active list). Walks day by day while
    /// events are near (the dense, common case); after one fruitless
    /// lap, jumps directly to the earliest cached day.
    fn advance(&mut self) {
        debug_assert!(self.wheel_len > 0);
        let lap = self.heads.len() as u64;
        let mut d = self.day + 1;
        let end = self.day.saturating_add(lap);
        while d <= end {
            let b = (d & self.mask) as usize;
            if self.next_day[b] == d {
                self.open_day(d);
                return;
            }
            d += 1;
        }
        // Sparse tail: nothing due within one lap — jump to the
        // earliest day resident anywhere in the wheel.
        let jump = self
            .next_day
            .iter()
            .copied()
            .min()
            .expect("wheel has buckets");
        debug_assert!(jump != u64::MAX, "wheel_len > 0 implies a resident day");
        self.open_day(jump);
    }

    /// Moves the entries of day `d` from its bucket chain into the
    /// (empty) active list, sorts it, returns their slots to the free
    /// list and recomputes the bucket's cached minimum day.
    fn open_day(&mut self, d: u64) {
        debug_assert!(self.active.is_empty());
        self.day = d;
        let b = (d & self.mask) as usize;
        let mut cur = self.heads[b];
        let mut keep = NIL;
        let mut remaining_min = u64::MAX;
        while cur != NIL {
            let s = cur as usize;
            let next = self.slots[s].next;
            let entry_day = self.slots[s].entry.time >> self.shift;
            if entry_day == d {
                self.active.push(self.slots[s].entry);
                self.slots[s].next = self.free;
                self.free = cur;
                self.wheel_len -= 1;
            } else {
                remaining_min = remaining_min.min(entry_day);
                self.slots[s].next = keep;
                keep = cur;
            }
            cur = next;
        }
        self.heads[b] = keep;
        self.next_day[b] = remaining_min;
        self.active.sort_unstable_by_key(|e| Reverse(e.key()));
    }

    /// Doubles the bucket count, re-linking every resident slot into
    /// its new bucket chain. Entries never move — only the intrusive
    /// links and the per-bucket tables are rebuilt.
    fn grow(&mut self) {
        let new_n = (self.heads.len() * 2).min(MAX_BUCKETS);
        let old_heads = std::mem::replace(&mut self.heads, vec![NIL; new_n]);
        self.next_day = vec![u64::MAX; new_n];
        self.mask = (new_n - 1) as u64;
        for mut cur in old_heads {
            while cur != NIL {
                let s = cur as usize;
                let next = self.slots[s].next;
                let day = self.slots[s].entry.time >> self.shift;
                let b = (day & self.mask) as usize;
                self.slots[s].next = self.heads[b];
                self.heads[b] = cur;
                if day < self.next_day[b] {
                    self.next_day[b] = day;
                }
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new(10);
        q.push(30, 0, ());
        q.push(10, 1, ());
        q.push(30, 2, ());
        q.push(10, 3, ());
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, s, _)| (t, s))
            .collect();
        assert_eq!(order, vec![(10, 1), (10, 3), (30, 0), (30, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = CalendarQueue::new(100);
        q.push(100, 0, 'a');
        assert_eq!(q.pop(), Some((100, 0, 'a')));
        // Push relative to the already-advanced day.
        q.push(100, 1, 'b');
        q.push(150, 2, 'c');
        assert_eq!(q.pop(), Some((100, 1, 'b')));
        q.push(120, 3, 'd');
        assert_eq!(q.pop(), Some((120, 3, 'd')));
        assert_eq!(q.pop(), Some((150, 2, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_events_survive_laps() {
        let mut q = CalendarQueue::new(1);
        // With tiny buckets, 1e9 ps is millions of laps ahead.
        q.push(1_000_000_000, 0, "far");
        q.push(5, 1, "near");
        assert_eq!(q.pop(), Some((5, 1, "near")));
        assert_eq!(q.pop(), Some((1_000_000_000, 0, "far")));
    }

    #[test]
    fn growth_keeps_every_event() {
        let mut q = CalendarQueue::new(8);
        let n = 10_000u64;
        for i in 0..n {
            // Scatter across a wide span to force bucket sharing and
            // at least one grow().
            q.push((i * 7919) % 1_000_000, i, i);
        }
        assert_eq!(q.len(), n as usize);
        let mut last = (0u64, 0u64);
        let mut count = 0;
        while let Some((t, s, _)) = q.pop() {
            assert!((t, s) > last || count == 0, "order violated at {t}/{s}");
            last = (t, s);
            count += 1;
        }
        assert_eq!(count, n);
    }

    /// A seeded xorshift64 stream.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// The queue-level oracle: on randomized push/pop streams shaped
    /// like the simulator's, the calendar pops exactly what a
    /// `BinaryHeap<Reverse<(time, seq)>>` pops. The streams mix
    ///
    /// * pushes a short random delay ahead of `now`;
    /// * zero-delta pushes at `now`, building deep same-time ties;
    /// * bursts of hundreds of events at one timestamp;
    /// * paced windows: an event popped at or past a moving `limit` is
    ///   pushed back with its original `seq`, then boundary events land
    ///   in `[limit, limit + lookahead)` with fresh seqs — what a fleet
    ///   run does at every window edge;
    /// * far-future pushes that lap the wheel many times;
    /// * a flood of future events that forces `grow()` while the
    ///   active day holds events;
    ///
    /// over gap estimates from `new(0)` up to microsecond days.
    #[test]
    fn matches_binary_heap_reference() {
        let mut grew_mid_day = 0;
        for trial in 0..256u64 {
            let mut rng =
                xorshift(0x9E37_79B9_7F4A_7C15 ^ trial.wrapping_mul(0xD1B5_4A32_D192_ED03));
            let gap = match trial % 4 {
                0 => 0,
                1 => 1 + rng() % 100,
                2 => 1 + rng() % 10_000,
                _ => 1 + rng() % 1_000_000,
            };
            let lookahead = 1 + rng() % 50_000;
            let mut q = CalendarQueue::new(gap);
            let mut reference = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut limit = lookahead;
            let mut push = |q: &mut CalendarQueue<u64>,
                            reference: &mut BinaryHeap<Reverse<(u64, u64)>>,
                            t: u64| {
                seq += 1;
                q.push(t, seq, seq);
                reference.push(Reverse((t, seq)));
            };
            let flood_at = if trial % 2 == 0 {
                rng() % 1_500
            } else {
                u64::MAX
            };
            for step in 0..1_500u64 {
                if step == flood_at {
                    // Same-day events first, so the flood grows the
                    // wheel while the active day is open.
                    for _ in 0..3 {
                        push(&mut q, &mut reference, now);
                    }
                    let buckets = q.heads.len();
                    for _ in 0..2 * buckets + 64 {
                        let t = now + 1 + rng() % 10_000_000;
                        push(&mut q, &mut reference, t);
                    }
                    if q.heads.len() > buckets && !q.active.is_empty() {
                        grew_mid_day += 1;
                    }
                    continue;
                }
                match rng() % 32 {
                    0..=11 => {
                        // Advance a window: pop a few events, stopping
                        // at the first one at or past `limit`.
                        for _ in 0..1 + rng() % 64 {
                            let got = q.pop();
                            let want = reference.pop().map(|Reverse((t, s))| (t, s, s));
                            assert_eq!(got, want, "trial {trial}, step {step}");
                            let Some((t, s, _)) = got else { break };
                            if t < limit {
                                now = t;
                                continue;
                            }
                            // Past the window: defer with the original
                            // seq, then deliver boundary events.
                            q.push(t, s, s);
                            reference.push(Reverse((t, s)));
                            for _ in 0..rng() % 4 {
                                let t = limit + rng() % lookahead;
                                push(&mut q, &mut reference, t);
                            }
                            limit += lookahead;
                            break;
                        }
                    }
                    12..=19 => {
                        let t = now + rng() % 10_000;
                        push(&mut q, &mut reference, t);
                    }
                    20..=23 => push(&mut q, &mut reference, now),
                    24 => {
                        let t = now + rng() % 3 * (rng() % 5_000);
                        for _ in 0..100 + rng() % 300 {
                            push(&mut q, &mut reference, t);
                        }
                    }
                    25 | 26 => {
                        let t = now + (1 << 40) + rng() % (1 << 44);
                        push(&mut q, &mut reference, t);
                    }
                    _ => {
                        let t = now + rng() % 1_000_000;
                        push(&mut q, &mut reference, t);
                    }
                }
                assert_eq!(q.len(), reference.len(), "trial {trial}, step {step}");
            }
            while let Some(want) = reference.pop() {
                let Reverse((t, s)) = want;
                assert_eq!(q.pop(), Some((t, s, s)), "trial {trial}, drain");
            }
            assert_eq!(q.pop(), None);
            assert!(q.is_empty());
        }
        assert!(grew_mid_day > 0, "no trial grew the wheel mid-day");
    }

    #[test]
    fn zero_gap_estimate_is_usable() {
        let mut q = CalendarQueue::new(0);
        q.push(0, 0, ());
        q.push(u64::MAX >> 1, 1, ());
        assert_eq!(q.pop(), Some((0, 0, ())));
        assert_eq!(q.pop(), Some((u64::MAX >> 1, 1, ())));
    }

    #[test]
    fn slab_reuses_slots_after_churn() {
        // Steady-state churn must not grow the slab past its peak.
        let mut q = CalendarQueue::new(1_000);
        let mut seq = 0u64;
        for i in 0..1_000u64 {
            seq += 1;
            q.push(10_000 + i * 1_000, seq, i);
        }
        let peak = q.slots.len();
        let mut now;
        for _ in 0..20_000 {
            let (t, _, p) = q.pop().expect("hold set never drains");
            now = t;
            seq += 1;
            q.push(now + 1_000_000, seq, p);
        }
        assert_eq!(q.len(), 1_000);
        assert!(
            q.slots.len() <= peak.max(1_000) + 1,
            "slab grew past peak: {} vs {peak}",
            q.slots.len()
        );
    }
}
