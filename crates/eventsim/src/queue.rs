//! A stable-order event queue, backed by a radix timer wheel.

use std::collections::VecDeque;

use crate::SimTime;

/// Number of radix buckets above the current-time bucket: one per possible
/// position of the highest bit in which a pending key differs from `top`.
const BUCKETS: usize = 64;

/// A priority queue of `(SimTime, E)` pairs that pops in time order and, for
/// equal timestamps, in insertion order.
///
/// The FIFO tie-break is what makes simulations reproducible: two events
/// scheduled for the same nanosecond always run in the order they were
/// scheduled, independent of queue internals.
///
/// # Implementation
///
/// A radix heap keyed on the ns-resolution [`SimTime`]: `cur` holds the
/// entries at exactly `top` (the time of the most recent pop), FIFO by
/// sequence number; entries at later times live in `buckets[b]` where `b`
/// is the position of the highest bit in which their key differs from
/// `top`. Popping past `cur` redistributes the lowest non-empty bucket
/// (found via the `occ` bitmask) around its minimum key, which becomes the
/// new `top`. Every redistribution moves an entry to a strictly lower
/// bucket, so each entry is touched O(64) times total — pops are amortized
/// O(1) instead of the binary heap's O(log n) sift of full entries.
///
/// The design requires keys to be monotonically non-decreasing relative to
/// `top`: scheduling earlier than the last popped timestamp is *clamped up
/// to it* (and trips a debug assertion under `strict-invariants`, since an
/// engine doing that has broken causality). The simulation engine never
/// schedules into the past — it clamps timers to `now` itself.
///
/// # Examples
///
/// ```
/// use eventsim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(5), 'b');
/// q.schedule(SimTime::from_ns(1), 'a');
/// assert_eq!(q.pop(), Some((SimTime::from_ns(1), 'a')));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), 'b')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Wheel floor: every pending key is `>= top`; `cur` holds keys `== top`.
    top: u64,
    /// Entries at exactly `top`, sorted ascending by `seq` (FIFO).
    cur: VecDeque<Entry<E>>,
    /// `buckets[b]`: entries whose key differs from `top` first at bit `b`
    /// (counting from the high end: `b = 63 - (key ^ top).leading_zeros()`).
    buckets: Vec<Vec<Entry<E>>>,
    /// Occupancy bitmask: bit `b` set ⇔ `buckets[b]` is non-empty.
    occ: u64,
    /// Pending entries across `cur` and all buckets.
    n: usize,
    /// Next tie-break sequence number (see [`EventQueue::reserve_seq`]).
    seq: u64,
    /// Entries actually enqueued (reservations excluded).
    pushes: u64,
    /// Redistribution scratch, swapped with a bucket to keep its capacity.
    spare: Vec<Entry<E>>,
    /// Tie-break seq of the most recently popped entry (its time is `top`);
    /// see [`EventQueue::last_popped_seq`]. The strict-invariant auditor
    /// asserts the `(top, last_seq)` pair non-decreasing across pops, so a
    /// tie-break regression (or queue misuse) surfaces at the pop that
    /// breaks simulated causality, not as a mysteriously different figure
    /// three layers up.
    last_seq: u64,
    /// Profiling: high-water mark of pending events.
    #[cfg(feature = "profile")]
    peak_len: usize,
    /// Profiling: events popped so far (push churn is `scheduled_total`).
    #[cfg(feature = "profile")]
    pops: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// Bucket index of `key` relative to `top`; caller guarantees `key != top`.
#[inline]
fn bucket_of(key: u64, top: u64) -> usize {
    (63 - (key ^ top).leading_zeros()) as usize
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            top: 0,
            cur: VecDeque::new(),
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occ: 0,
            n: 0,
            seq: 0,
            pushes: 0,
            spare: Vec::new(),
            last_seq: 0,
            #[cfg(feature = "profile")]
            peak_len: 0,
            #[cfg(feature = "profile")]
            pops: 0,
        }
    }

    /// Creates an empty queue with room for roughly `cap` events spread
    /// over the wheel (the current-time cohort and the redistribution
    /// scratch get the lion's share; the per-bit buckets a sliver each).
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = EventQueue::new();
        q.cur.reserve(cap / 4);
        q.spare.reserve(cap / 4);
        for b in &mut q.buckets {
            b.reserve(cap / BUCKETS);
        }
        q
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// Scheduling earlier than the last popped timestamp is clamped up to
    /// it (and is a `strict-invariants` debug-assertion failure): the
    /// radix layout cannot file keys below `top`, and an engine scheduling
    /// into the past has broken causality anyway. The engine layer only
    /// schedules at or after its current clock.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.push_entry(at, seq, event);
    }

    /// Allocates and returns a tie-break sequence number without enqueuing
    /// anything. A later [`EventQueue::schedule_with_seq`] with this number
    /// pops in exactly the FIFO slot an immediate `schedule` at reservation
    /// time would have — the engine uses this to defer superseded timer
    /// re-arms without perturbing same-timestamp ordering.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `event` at `at` under a sequence number previously
    /// returned by [`EventQueue::reserve_seq`]. The caller must ensure
    /// `(at, seq)` does not precede anything already popped (the engine's
    /// deferred timers satisfy this by construction); a violation trips
    /// the `strict-invariants` pop audit.
    #[inline]
    pub fn schedule_with_seq(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.seq, "seq was never reserved");
        self.push_entry(at, seq, event);
    }

    fn push_entry(&mut self, at: SimTime, seq: u64, event: E) {
        let mut key = at.as_ns();
        if key < self.top {
            #[cfg(feature = "strict-invariants")]
            debug_assert!(
                false,
                "scheduled into the past: {:?} below wheel floor {:?}",
                at,
                SimTime::from_ns(self.top)
            );
            key = self.top;
        }
        let at = SimTime::from_ns(key);
        self.pushes += 1;
        self.n += 1;
        if key == self.top {
            // Common case: a fresh seq is larger than everything pending,
            // so this is a plain append. Reserved seqs may land mid-cohort.
            let e = Entry { at, seq, event };
            match self.cur.back() {
                Some(b) if b.seq > seq => {
                    let pos = self.cur.partition_point(|x| x.seq < seq);
                    self.cur.insert(pos, e);
                }
                _ => self.cur.push_back(e),
            }
        } else {
            let b = bucket_of(key, self.top);
            self.buckets[b].push(Entry { at, seq, event });
            self.occ |= 1 << b;
        }
        #[cfg(feature = "profile")]
        {
            self.peak_len = self.peak_len.max(self.n);
        }
    }

    /// Redistributes the lowest non-empty bucket around its minimum key,
    /// which becomes the new `top`. Returns `false` when nothing is left.
    fn refill(&mut self) -> bool {
        if self.occ == 0 {
            return false;
        }
        let b = self.occ.trailing_zeros() as usize;
        self.occ &= !(1 << b);
        std::mem::swap(&mut self.buckets[b], &mut self.spare);
        let new_top = self
            .spare
            .iter()
            .map(|e| e.at.as_ns())
            .min()
            .expect("occupied bucket is non-empty");
        self.top = new_top;
        for e in self.spare.drain(..) {
            let key = e.at.as_ns();
            if key == new_top {
                self.cur.push_back(e);
            } else {
                // Entries of bucket `b` agree with the old top above bit
                // `b` and all flip it, so they agree with `new_top` on
                // bits >= b: each lands in a strictly lower bucket
                // (amortized-O(1) pops).
                let nb = bucket_of(key, new_top);
                debug_assert!(nb < b);
                self.buckets[nb].push(e);
                self.occ |= 1 << nb;
            }
        }
        // The bucket held entries in push order, not seq order; restore
        // the FIFO tie-break for the new current-time cohort. Most refills
        // surface a single entry, which needs no sorting at all.
        if self.cur.len() > 1 {
            self.cur.make_contiguous().sort_unstable_by_key(|e| e.seq);
        }
        true
    }

    /// Removes and returns the earliest event, or `None` when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        #[cfg(feature = "strict-invariants")]
        let prev = (SimTime::from_ns(self.top), self.last_seq);
        if self.cur.is_empty() && !self.refill() {
            return None;
        }
        let e = self.cur.pop_front().expect("refill fills cur");
        self.n -= 1;
        self.last_seq = e.seq;
        #[cfg(feature = "profile")]
        {
            // Counted in the successful-pop arm only, so the counter can
            // never drift from what was actually handed out.
            self.pops += 1;
        }
        #[cfg(feature = "strict-invariants")]
        debug_assert!(
            (e.at, e.seq) >= prev,
            "event queue popped backwards: {:?} after {:?}",
            (e.at, e.seq),
            prev
        );
        Some((e.at, e.event))
    }

    /// Tie-break sequence number of the most recently popped entry (`0`
    /// before the first pop). Together with the popped timestamp this is
    /// the queue position of the event being executed: a caller holding a
    /// reserved `(at, seq)` can tell whether that slot would already have
    /// popped — `(at, seq) < (now, last_popped_seq())` — without the entry
    /// ever having been enqueued. The engine's lazy `TxDone` rests on it.
    #[inline]
    pub fn last_popped_seq(&self) -> u64 {
        self.last_seq
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.cur.front() {
            return Some(e.at);
        }
        if self.occ == 0 {
            return None;
        }
        // Rare path (only between draining `cur` and the next pop): scan
        // the lowest non-empty bucket for its minimum.
        let b = self.occ.trailing_zeros() as usize;
        self.buckets[b].iter().map(|e| e.at).min()
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Total number of events actually enqueued on this queue (pending +
    /// popped; sequence reservations that never materialized don't count).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.pushes
    }

    /// Total tie-break sequence numbers allocated: every `schedule` plus
    /// every `reserve_seq`, materialized or not. This is the engine's
    /// logical unit of work — identical whether timer re-arms are eager or
    /// deferred — so cross-version throughput comparisons stay honest.
    #[inline]
    pub fn seq_total(&self) -> u64 {
        self.seq
    }

    /// Profiling: the deepest the queue has ever been.
    #[cfg(feature = "profile")]
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Profiling: total successful pops (so `pops_total + len ==
    /// scheduled_total` at any instant).
    #[cfg(feature = "profile")]
    #[inline]
    pub fn pops_total(&self) -> u64 {
        self.pops
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[30u64, 10, 20, 5, 25] {
            q.schedule(SimTime::from_ns(t), t);
        }
        let mut out = Vec::new();
        while let Some((at, e)) = q.pop() {
            assert_eq!(at.as_ns(), e);
            out.push(e);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ns(7), i);
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let expected: Vec<_> = (0..100).collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(10), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        // "c" is scheduled later than "b" at the same instant, so pops after.
        q.schedule(SimTime::from_ns(10), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_ns(3), ());
        q.schedule(SimTime::from_ns(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1)));
        assert_eq!(q.scheduled_total(), 2);
        // After draining the ns-1 cohort, peek crosses into a bucket.
        assert_eq!(q.pop().unwrap().0, SimTime::from_ns(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(3)));
    }

    #[test]
    fn reserved_seq_pops_in_reservation_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(5), "first");
        let held = q.reserve_seq();
        q.schedule(SimTime::from_ns(5), "third");
        // The reserved slot materializes late but pops where it was
        // reserved — between "first" and "third".
        q.schedule_with_seq(SimTime::from_ns(5), held, "second");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["first", "second", "third"]);
        // Reservations count toward seq_total but not scheduled_total.
        assert_eq!(q.scheduled_total(), 3);
        assert_eq!(q.seq_total(), 3);
        let _ = q.reserve_seq();
        assert_eq!(q.scheduled_total(), 3);
        assert_eq!(q.seq_total(), 4);
    }

    #[test]
    fn far_future_horizon_keys_are_handled() {
        // Keys whose top bit differs land in the highest bucket; the wheel
        // must cover the full u64 ns range without overflow.
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "eon");
        q.schedule(SimTime::from_ns(1), "now");
        q.schedule(SimTime::from_ns(u64::MAX - 1), "almost");
        assert_eq!(q.pop().unwrap().1, "now");
        assert_eq!(q.pop().unwrap().1, "almost");
        assert_eq!(q.pop(), Some((SimTime::MAX, "eon")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[cfg(not(feature = "strict-invariants"))]
    fn schedule_into_past_clamps_to_wheel_floor() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "late");
        assert!(q.pop().is_some());
        q.schedule(SimTime::from_ns(5), "time traveler");
        // The payload still pops, at the clamped (floor) timestamp.
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), "time traveler")));
    }

    fn random_times(rng: &mut crate::SimRng) -> Vec<u64> {
        let n = rng.gen_range_usize(0..200);
        (0..n).map(|_| rng.gen_range_u64(0..1_000)).collect()
    }

    /// Popped timestamps are non-decreasing for randomly generated schedule
    /// orders (seeded, so failures reproduce).
    #[test]
    fn prop_monotonic_pop() {
        let mut rng = crate::SimRng::seed_from(0xE5E7);
        for case in 0..128 {
            let times = random_times(&mut rng);
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule(SimTime::from_ns(t), t);
            }
            let mut last = 0u64;
            while let Some((at, _)) = q.pop() {
                assert!(at.as_ns() >= last, "case {case}: time went backwards");
                last = at.as_ns();
            }
        }
    }

    /// The strict-invariant audit trips when causality is violated:
    /// scheduling into the past *after* a later event was already popped
    /// is exactly the engine bug the audit exists to catch. The wheel
    /// rejects it at the schedule site (it cannot even file such a key).
    #[test]
    #[cfg(feature = "strict-invariants")]
    #[should_panic(expected = "scheduled into the past")]
    fn strict_pop_order_audit_fires_on_time_travel() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "late");
        assert!(q.pop().is_some());
        q.schedule(SimTime::from_ns(5), "time traveler");
        let _ = q.pop();
    }

    /// Queue-health stats track the high-water mark and pop churn.
    #[test]
    #[cfg(feature = "profile")]
    fn profile_tracks_peak_depth_and_pops() {
        let mut q = EventQueue::new();
        assert_eq!((q.peak_len(), q.pops_total()), (0, 0));
        for t in 0..5u64 {
            q.schedule(SimTime::from_ns(t), t);
        }
        assert_eq!(q.peak_len(), 5);
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        q.schedule(SimTime::from_ns(9), 9);
        // Peak stays at the high-water mark; failed pops don't count.
        assert_eq!(q.peak_len(), 5);
        // The pop counter lives in the successful-pop arm, so it can never
        // drift from reality: popped + pending == enqueued, always.
        assert_eq!(q.pops_total() + q.len() as u64, q.scheduled_total());
        while q.pop().is_some() {}
        assert!(q.pop().is_none());
        assert_eq!(q.pops_total(), 6);
        assert_eq!(q.scheduled_total(), 6);
        assert_eq!(q.pops_total() + q.len() as u64, q.scheduled_total());
    }

    /// Every scheduled event is popped exactly once.
    #[test]
    fn prop_conservation() {
        let mut rng = crate::SimRng::seed_from(0xC0_5E12);
        for case in 0..128 {
            let times = random_times(&mut rng);
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_ns(t), i);
            }
            let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            seen.sort_unstable();
            let expected: Vec<usize> = (0..times.len()).collect();
            assert_eq!(seen, expected, "case {case}");
        }
    }

    /// Reference model for the differential test: a sorted list with the
    /// same contract (pop by `(time, seq)`, clamp-to-floor on past keys).
    struct Model<E> {
        pending: Vec<(u64, u64, E)>,
        floor: u64,
        seq: u64,
        last_seq: u64,
    }

    impl<E> Model<E> {
        fn new() -> Self {
            Model {
                pending: Vec::new(),
                floor: 0,
                seq: 0,
                last_seq: 0,
            }
        }
        fn schedule(&mut self, at: u64, event: E) {
            let seq = self.seq;
            self.seq += 1;
            self.pending.push((at.max(self.floor), seq, event));
        }
        fn reserve_seq(&mut self) -> u64 {
            let seq = self.seq;
            self.seq += 1;
            seq
        }
        fn schedule_with_seq(&mut self, at: u64, seq: u64, event: E) {
            self.pending.push((at.max(self.floor), seq, event));
        }
        fn pop(&mut self) -> Option<(u64, E)> {
            let i = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, (at, seq, _))| (*at, *seq))
                .map(|(i, _)| i)?;
            let (at, seq, event) = self.pending.swap_remove(i);
            self.floor = at;
            self.last_seq = seq;
            Some((at, event))
        }
    }

    /// Differential property test: the wheel agrees with the reference
    /// model on random schedule/pop interleavings — same-tick FIFO bursts,
    /// far-future horizon keys, reserved-seq deferrals (including ones
    /// materialized at exactly the floor, mid-cohort — the lazy `TxDone`
    /// shape), and (in non-strict builds) schedule-into-past clamping. The
    /// last-popped seq is checked against the model after every pop.
    #[test]
    fn prop_differential_against_reference_model() {
        let mut rng = crate::SimRng::seed_from(0xD1FF);
        let mut mid_cohort = 0u32;
        for case in 0..96 {
            let mut q = EventQueue::new();
            let mut m = Model::new();
            let mut now = 0u64;
            let mut reserved: Vec<u64> = Vec::new();
            let mut id = 0u64;
            for _ in 0..rng.gen_range_usize(0..300) {
                match rng.gen_range_u64(0..11) {
                    // Schedule ahead of the floor, with bursts at `now`
                    // (FIFO tie-break) and occasional far-future spikes.
                    0..=4 => {
                        let at = match rng.gen_range_u64(0..8) {
                            0 => now,
                            1 => now.max(u64::MAX - rng.gen_range_u64(0..4)),
                            _ => now.saturating_add(rng.gen_range_u64(0..5_000)),
                        };
                        q.schedule(SimTime::from_ns(at), id);
                        m.schedule(at, id);
                        id += 1;
                    }
                    // Schedule into the past: clamps to the floor. The
                    // strict build forbids it, so keep the key legal there.
                    5 => {
                        let at = if cfg!(feature = "strict-invariants") {
                            now
                        } else {
                            now.saturating_sub(rng.gen_range_u64(0..1_000))
                        };
                        q.schedule(SimTime::from_ns(at), id);
                        m.schedule(at, id);
                        id += 1;
                    }
                    // Reserve now, materialize later (possibly much later).
                    6 => {
                        let qs = q.reserve_seq();
                        let ms = m.reserve_seq();
                        assert_eq!(qs, ms, "case {case}: seq counters diverged");
                        reserved.push(qs);
                    }
                    7 if !reserved.is_empty() => {
                        let at = now.saturating_add(rng.gen_range_u64(0..2_000));
                        // A reserved (old) seq materializing at the current
                        // floor pops "behind" later seqs already popped
                        // there — legal for the queue, but the strict audit
                        // rightly flags it (the engine can't produce it).
                        if cfg!(feature = "strict-invariants") && at <= now {
                            continue;
                        }
                        let i = rng.gen_range_usize(0..reserved.len());
                        let seq = reserved.swap_remove(i);
                        q.schedule_with_seq(SimTime::from_ns(at), seq, id);
                        m.schedule_with_seq(at, seq, id);
                        id += 1;
                    }
                    // Materialize a reservation at exactly the floor. A seq
                    // above the last popped one is still ahead of the pop
                    // cursor, so this is legal under the strict audit too —
                    // and it must land *between* the cohort's pending seqs,
                    // not behind them.
                    8 => {
                        let last = q.last_popped_seq();
                        let Some(i) = reserved.iter().position(|&s| s > last) else {
                            continue;
                        };
                        let seq = reserved.swap_remove(i);
                        let at_floor = |&(at, s, _): &(u64, u64, u64)| at == now && s > seq;
                        mid_cohort += u32::from(m.pending.iter().any(at_floor));
                        q.schedule_with_seq(SimTime::from_ns(now), seq, id);
                        m.schedule_with_seq(now, seq, id);
                        id += 1;
                    }
                    _ => {
                        let got = q.pop();
                        let want = m.pop();
                        assert_eq!(
                            got.map(|(t, e)| (t.as_ns(), e)),
                            want,
                            "case {case}: pop diverged"
                        );
                        if let Some((t, _)) = got {
                            now = t.as_ns();
                        }
                        assert_eq!(
                            q.last_popped_seq(),
                            m.last_seq,
                            "case {case}: last-popped seq diverged"
                        );
                    }
                }
                assert_eq!(q.len(), m.pending.len(), "case {case}: len diverged");
            }
            // Drain: the tails must match exactly.
            loop {
                let got = q.pop();
                let want = m.pop();
                assert_eq!(
                    got.map(|(t, e)| (t.as_ns(), e)),
                    want,
                    "case {case}: drain diverged"
                );
                assert_eq!(q.last_popped_seq(), m.last_seq, "case {case}: drain seq");
                if got.is_none() {
                    break;
                }
            }
        }
        assert!(
            mid_cohort > 0,
            "no reservation ever materialized ahead of a pending same-tick entry"
        );
    }
}
