//! A stable-order event queue: a direct-mapped nanosecond wheel for the near
//! future, a binary heap for the far future.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// Wheel span in nanoseconds, and the number of one-nanosecond slots: every
/// pending key in `[top, top + W)` lives in the wheel, the rest in the far
/// heap. 2^16 ns (65.5 µs) covers the longest link (10 µs + an MTU's
/// serialization) and the 55 µs DCQCN timers, so the far heap only ever sees
/// RTO-class timers (DESIGN §12 has the measured far share per workload).
const W: usize = 1 << 16;
const MASK: u64 = W as u64 - 1;
/// Occupancy bitmap: one bit per slot, plus one summary bit per bitmap word.
const L0_WORDS: usize = W / 64;
const L1_WORDS: usize = L0_WORDS / 64;

/// A priority queue of `(SimTime, E)` pairs that pops in time order and, for
/// equal timestamps, in insertion order.
///
/// The FIFO tie-break is what makes simulations reproducible: two events
/// scheduled for the same nanosecond always run in the order they were
/// scheduled, independent of queue internals.
///
/// # Implementation
///
/// Two tiers keyed on the ns-resolution [`SimTime`], split at push time
/// relative to `top` (the time of the most recent pop):
///
/// - **Wheel.** A key in `[top, top + W)` goes to slot `key & (W - 1)` of a
///   direct-mapped table of `W` one-nanosecond slots. A slot is the head of
///   an intrusive FIFO list (ascending tie-break seq) threaded through a
///   recycled node arena, so a push is one node write and a pop one node
///   read. Because all wheel keys lie within one span of `top`, slot ↔ key
///   is one-to-one and the key is not stored: it is decoded as
///   `top + ((slot - top) & (W - 1))`. A two-level occupancy bitmap finds
///   the next occupied slot at or circularly after `top`'s own slot.
/// - **Far heap.** A key at `top + W` or beyond when pushed (RTO-class
///   timers) goes to a plain binary heap ordered by `(at, seq)`. Far entries
///   never migrate into the wheel: `pop` takes the smaller `(at, seq)` of
///   the wheel's next slot head and the heap's minimum, which already
///   orders the two tiers — also when they share a timestamp.
///
/// `top` only rises and `pop` returns the global minimum, so wheel keys
/// stay inside `[top, top + W)` for as long as they are pending.
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
    /// Queue floor: the time of the most recent pop. Every pending key is
    /// `>= top`, and every wheel key is `< top + W`.
    top: u64,
    /// `slots[key & MASK]`: head of that key's list as node index + 1, or 0
    /// when empty — so the table is a zero-initialised allocation whose
    /// pages are only faulted in when touched, never filled.
    slots: Box<[u32; W]>,
    /// Node arena; freed nodes are chained through `next` from `free`
    /// (LIFO, so only peak-depth many nodes are ever touched).
    nodes: Vec<Node<E>>,
    /// Head of the free-node chain (node index + 1, 0 = none).
    free: u32,
    /// Bit `s & 63` of `l0[s >> 6]` set ⇔ slot `s` is occupied.
    l0: Box<[u64; L0_WORDS]>,
    /// Bit `w & 63` of `l1[w >> 6]` set ⇔ `l0[w] != 0`.
    l1: [u64; L1_WORDS],
    /// Entries pushed at `top + W` or beyond, min-ordered by `(at, seq)`.
    far: BinaryHeap<Far<E>>,
    /// Pending entries across both tiers.
    n: usize,
    /// Next tie-break sequence number (see [`EventQueue::reserve_seq`]).
    seq: u64,
    /// Entries actually enqueued (reservations excluded).
    pushes: u64,
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

/// One wheel entry. Links are node index + 1, with 0 for "none".
#[derive(Debug)]
struct Node<E> {
    seq: u64,
    /// Next entry of the same slot (larger seq), or next free node.
    next: u32,
    /// Index of the slot's last node; meaningful in the head node only,
    /// which keeps a slot at four bytes.
    tail: u32,
    /// `None` only while the node sits on the free chain.
    event: Option<E>,
}

/// One far-heap entry; `Ord` is reversed so the max-heap pops the smallest
/// `(at, seq)`.
#[derive(Debug)]
struct Far<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Far<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Far<E> {}

impl<E> PartialOrd for Far<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Far<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue. Nothing is filled or built: the slot table
    /// is zero-initialised memory and the node arena starts empty.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue whose node arena has room for `cap` pending
    /// near-future events before it regrows (size it to the expected peak
    /// depth; far-future entries live in a separate, small heap).
    pub fn with_capacity(cap: usize) -> Self {
        let slots: Box<[u32]> = vec![0u32; W].into_boxed_slice();
        EventQueue {
            top: 0,
            slots: slots.try_into().expect("slot table has W entries"),
            nodes: Vec::with_capacity(cap),
            free: 0,
            l0: Box::new([0; L0_WORDS]),
            l1: [0; L1_WORDS],
            far: BinaryHeap::new(),
            n: 0,
            seq: 0,
            pushes: 0,
            last_seq: 0,
            #[cfg(feature = "profile")]
            peak_len: 0,
            #[cfg(feature = "profile")]
            pops: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// Scheduling earlier than the last popped timestamp is clamped up to
    /// it (and is a `strict-invariants` debug-assertion failure): the
    /// wheel cannot file keys below `top`, and an engine scheduling into
    /// the past has broken causality anyway. The engine layer only
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

    // Forced in (with `push_wheel`): at plain `#[inline]` both stay calls,
    // and every engine `sched` then spills its 16-byte event to the stack
    // to pass it (EXPERIMENTS "What the route table bought").
    #[inline(always)]
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
        self.pushes += 1;
        self.n += 1;
        // Span invariant: the wheel takes a key iff it lies within one span
        // of the floor (`key >= top` after the clamp, so no underflow).
        if key - self.top < W as u64 {
            self.push_wheel((key & MASK) as usize, seq, event);
        } else {
            self.far.push(Far {
                at: key,
                seq,
                event,
            });
        }
        #[cfg(feature = "profile")]
        {
            self.peak_len = self.peak_len.max(self.n);
        }
    }

    /// Links a new node into `slot`'s list at its seq position.
    #[inline(always)]
    fn push_wheel(&mut self, slot: usize, seq: u64, event: E) {
        // The node's index is known before it is written, so it is written
        // once, as the one-entry list it is if the slot turns out empty.
        let idx = match self.free {
            0 => self.nodes.len(),
            f => f as usize - 1,
        };
        let link = u32::try_from(idx + 1).expect("fewer than 2^32 pending events");
        let this = link - 1;
        let node = Node {
            seq,
            next: 0,
            tail: this,
            event: Some(event),
        };
        match self.nodes.get_mut(idx) {
            Some(freed) => {
                self.free = freed.next;
                *freed = node;
            }
            None => self.nodes.push(node),
        }
        let head_link = self.slots[slot];
        if head_link == 0 {
            self.slots[slot] = link;
            self.l0[slot >> 6] |= 1 << (slot & 63);
            self.l1[slot >> 12] |= 1 << ((slot >> 6) & 63);
            return;
        }
        let head = head_link as usize - 1;
        let tail = self.nodes[head].tail as usize;
        if self.nodes[tail].seq < seq {
            // Common case: a fresh seq is larger than everything pending.
            self.nodes[tail].next = link;
            self.nodes[head].tail = this;
        } else if seq < self.nodes[head].seq {
            // Reserved seqs may land anywhere in the list; here, in front.
            self.nodes[idx].next = head_link;
            self.nodes[idx].tail = tail as u32;
            self.slots[slot] = link;
        } else {
            // ... or in the middle: the tail's seq is larger, so the walk
            // stops at a node that has a successor.
            let mut prev = head;
            loop {
                let next = self.nodes[prev].next as usize - 1;
                if self.nodes[next].seq > seq {
                    break;
                }
                prev = next;
            }
            self.nodes[idx].next = self.nodes[prev].next;
            self.nodes[prev].next = link;
        }
    }

    /// The occupied slot at or circularly after `top`'s own slot, which by
    /// the span invariant holds the smallest wheel key.
    #[inline]
    fn next_slot(&self) -> Option<usize> {
        if self.n == self.far.len() {
            return None;
        }
        let pos = (self.top & MASK) as usize;
        let word = pos >> 6;
        let here = self.l0[word] & (!0 << (pos & 63));
        if here != 0 {
            return Some(word << 6 | here.trailing_zeros() as usize);
        }
        // Later words, then wrap; the wrap may come back to `word` itself
        // for the bits below `pos` (an entry almost one full span ahead).
        let word = self
            .first_word_from(word + 1)
            .or_else(|| self.first_word_from(0))
            .expect("a pending wheel entry has its occupancy bit set");
        Some(word << 6 | self.l0[word].trailing_zeros() as usize)
    }

    /// Lowest non-empty bitmap word with index `>= from`.
    fn first_word_from(&self, from: usize) -> Option<usize> {
        let mut mask = !0 << (from & 63);
        for s in (from >> 6)..L1_WORDS {
            let m = self.l1[s] & mask;
            if m != 0 {
                return Some(s << 6 | m.trailing_zeros() as usize);
            }
            mask = !0;
        }
        None
    }

    /// Decodes the key filed in an occupied `slot`: the one time in
    /// `[top, top + W)` that maps to it.
    #[inline]
    fn slot_key(&self, slot: usize) -> u64 {
        self.top + ((slot as u64).wrapping_sub(self.top) & MASK)
    }

    /// Removes and returns the earliest event, or `None` when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        #[cfg(feature = "strict-invariants")]
        let prev = (self.top, self.last_seq);
        // Cross-tier order is the `(at, seq)` pair, never the time alone: a
        // far entry pushed when `top` was lower can share its timestamp
        // with wheel entries on either side of its seq.
        let wheel = self
            .next_slot()
            .map(|slot| (self.slot_key(slot), slot))
            .filter(|&(key, slot)| match self.far.peek() {
                Some(f) => {
                    key < f.at
                        || (key == f.at && self.nodes[self.slots[slot] as usize - 1].seq < f.seq)
                }
                None => true,
            });
        let (at, seq, event) = match wheel {
            Some((key, slot)) => {
                let (seq, event) = self.pop_wheel(slot);
                (key, seq, event)
            }
            None => {
                let f = self.far.pop()?;
                (f.at, f.seq, f.event)
            }
        };
        self.top = at;
        self.n -= 1;
        self.last_seq = seq;
        #[cfg(feature = "profile")]
        {
            // Counted in the successful-pop arm only, so the counter can
            // never drift from what was actually handed out.
            self.pops += 1;
        }
        #[cfg(feature = "strict-invariants")]
        debug_assert!(
            (at, seq) >= prev,
            "event queue popped backwards: {:?} after {:?}",
            (SimTime::from_ns(at), seq),
            (SimTime::from_ns(prev.0), prev.1)
        );
        Some((SimTime::from_ns(at), event))
    }

    /// Unlinks the head of occupied `slot` and recycles its node.
    #[inline]
    fn pop_wheel(&mut self, slot: usize) -> (u64, E) {
        let idx = self.slots[slot] as usize - 1;
        let node = &mut self.nodes[idx];
        let (seq, next, tail) = (node.seq, node.next, node.tail);
        let event = node.event.take().expect("a linked node holds an event");
        node.next = self.free;
        self.free = idx as u32 + 1;
        self.slots[slot] = next;
        if next == 0 {
            let word = slot >> 6;
            self.l0[word] &= !(1 << (slot & 63));
            if self.l0[word] == 0 {
                self.l1[word >> 6] &= !(1 << (word & 63));
            }
        } else {
            self.nodes[next as usize - 1].tail = tail;
        }
        (seq, event)
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
        let wheel = self.next_slot().map(|slot| self.slot_key(slot));
        let far = self.far.peek().map(|f| f.at);
        let at = match (wheel, far) {
            (Some(w), Some(f)) => Some(w.min(f)),
            (w, f) => w.or(f),
        };
        at.map(SimTime::from_ns)
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
        // After draining the ns-1 slot, peek moves on to the next one.
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
        // Keys a span or more ahead of the floor go to the far heap; the
        // queue must cover the full u64 ns range without overflow.
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
    /// is exactly the engine bug the audit exists to catch. The queue
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

    /// The queue and the reference model driven in lockstep. After every
    /// operation the lengths, the floor and `peek_time` must agree.
    struct Lockstep {
        q: EventQueue<u64>,
        m: Model<u64>,
        now: u64,
        /// Tier each pushed event went to, by event id (`true` = far heap):
        /// the model has no tiers, so the shape counters read it from here.
        far: Vec<bool>,
        /// Pops that took the floor past slot 0 while a wheel entry (filed
        /// before the wrap, keyed after it) was pending.
        revolutions: u32,
        case: usize,
    }

    impl Lockstep {
        fn new(case: usize) -> Self {
            Lockstep {
                q: EventQueue::new(),
                m: Model::new(),
                now: 0,
                far: Vec::new(),
                revolutions: 0,
                case,
            }
        }

        /// Schedules the next event id at `at`, under a fresh seq or a
        /// previously reserved one.
        fn push(&mut self, at: u64, reserved: Option<u64>) {
            let id = self.far.len() as u64;
            self.far.push(at.max(self.now) - self.now >= W as u64);
            match reserved {
                Some(seq) => {
                    self.q.schedule_with_seq(SimTime::from_ns(at), seq, id);
                    self.m.schedule_with_seq(at, seq, id);
                }
                None => {
                    self.q.schedule(SimTime::from_ns(at), id);
                    self.m.schedule(at, id);
                }
            }
            self.check();
        }

        fn reserve(&mut self) -> u64 {
            let seq = self.q.reserve_seq();
            assert_eq!(
                seq,
                self.m.reserve_seq(),
                "case {}: seq counters",
                self.case
            );
            seq
        }

        fn pop(&mut self) -> bool {
            let got = self.q.pop().map(|(t, e)| (t.as_ns(), e));
            assert_eq!(got, self.m.pop(), "case {}: pop diverged", self.case);
            assert_eq!(
                self.q.last_popped_seq(),
                self.m.last_seq,
                "case {}: last-popped seq diverged",
                self.case
            );
            if let Some((t, _)) = got {
                let wheel_pending = self.m.pending.iter().any(|e| !self.far[e.2 as usize]);
                let wrapped = t / W as u64 > self.now / W as u64;
                self.revolutions += u32::from(wrapped && wheel_pending);
                self.now = t;
            }
            self.check();
            got.is_some()
        }

        fn check(&self) {
            let case = self.case;
            assert_eq!(self.q.len(), self.m.pending.len(), "case {case}: len");
            assert_eq!(self.q.top, self.m.floor, "case {case}: floor");
            assert_eq!(
                self.q.peek_time().map(SimTime::as_ns),
                self.m.pending.iter().map(|&(at, ..)| at).min(),
                "case {case}: peek_time is not the next pop's time"
            );
        }

        /// Seqs of the pending entries at `key` in the given tier.
        fn seqs_at(&self, key: u64, far: bool) -> Vec<u64> {
            let in_tier =
                |&&(at, _, id): &&(u64, u64, u64)| at == key && self.far[id as usize] == far;
            self.m.pending.iter().filter(in_tier).map(|e| e.1).collect()
        }
    }

    /// How often each shape the two-tier layout must get right occurred.
    #[derive(Debug, Default)]
    struct Shapes {
        /// A reservation materialized at the floor ahead of a pending entry.
        mid_cohort: u32,
        /// Increments of `W - 2 ..= W + 2` and `k * W ± 1`.
        straddle: u32,
        /// Most slot-0 crossings in one case with a wheel entry pending.
        revolutions: u32,
        /// A wheel push at a timestamp where a far entry is pending ...
        tier_tie: u32,
        /// ... under a reserved seq older than the far entry's ...
        tier_tie_reserved: u32,
        /// ... leaving the far seq strictly between two wheel seqs.
        tier_tie_interleaved: u32,
        /// Reserved seqs linked into a slot list of three or more entries.
        list_head: u32,
        list_mid: u32,
        list_tail: u32,
    }

    /// Differential property test: the queue agrees with the reference
    /// model on random schedule/pop interleavings — same-tick FIFO bursts,
    /// far-future horizon keys, increments that straddle the wheel span,
    /// several wheel revolutions with entries pending across each wrap, far
    /// and wheel entries sharing a timestamp, reserved-seq deferrals
    /// (materialized at exactly the floor, mid-cohort — the lazy `TxDone`
    /// shape — and at the head, middle and tail of longer slot lists), and
    /// (in non-strict builds) schedule-into-past clamping. Every shape is
    /// counted and asserted to have occurred.
    #[test]
    fn prop_differential_against_reference_model() {
        const SPAN: u64 = W as u64;
        let mut rng = crate::SimRng::seed_from(0xD1FF);
        let mut shapes = Shapes::default();
        // The model is quadratic; Miri is ~100x slower than native.
        let cases = if cfg!(miri) { 24 } else { 96 };
        for case in 0..cases {
            let mut s = Lockstep::new(case);
            // Reserved seqs, each with the key of the slot list it was
            // interleaved into (if any).
            let mut reserved: Vec<(u64, Option<u64>)> = Vec::new();
            // Pop-heavy cases keep the queue shallow, so `now` chases the
            // straddling increments around the wheel; push-heavy ones build
            // deep cohorts. Horizon spikes pin `now` near `u64::MAX` once
            // popped, so only every fourth case draws them.
            let arms = 12 + 6 * (case as u64 % 3);
            // Wide increments (still inside the span) make `now` lap the
            // wheel several times with entries pending across each wrap.
            let wide = case % 4 >= 2;
            let spread = if wide { 60_000 } else { 5_000 };
            for _ in 0..rng.gen_range_usize(0..300) + 300 * usize::from(wide) {
                let now = s.now;
                match rng.gen_range_u64(0..arms) {
                    // Schedule ahead of the floor: bursts at `now` (FIFO
                    // tie-break), far-future spikes, span straddlers.
                    0..=3 => {
                        let at = match rng.gen_range_u64(0..10) {
                            0 => now,
                            1 if case % 4 == 0 => now.max(u64::MAX - rng.gen_range_u64(0..4)),
                            2 => {
                                shapes.straddle += 1;
                                now.saturating_add(SPAN - 2 + rng.gen_range_u64(0..5))
                            }
                            3 => {
                                shapes.straddle += 1;
                                let k = rng.gen_range_u64(1..4);
                                now.saturating_add(k * SPAN - 1 + 2 * rng.gen_range_u64(0..2))
                            }
                            _ => now.saturating_add(rng.gen_range_u64(0..spread)),
                        };
                        s.push(at, None);
                    }
                    // A slot list of three with reservations around and
                    // inside it, to be materialized into that list later.
                    4 => {
                        let key = now.saturating_add(1 + rng.gen_range_u64(0..3_000));
                        reserved.push((s.reserve(), Some(key)));
                        s.push(key, None);
                        reserved.push((s.reserve(), Some(key)));
                        s.push(key, None);
                        s.push(key, None);
                        reserved.push((s.reserve(), Some(key)));
                    }
                    // Schedule into the past: clamps to the floor. The
                    // strict build forbids it, so keep the key legal there.
                    5 => {
                        let at = if cfg!(feature = "strict-invariants") {
                            now
                        } else {
                            now.saturating_sub(rng.gen_range_u64(0..1_000))
                        };
                        s.push(at, None);
                    }
                    // Reserve now, materialize later (possibly much later).
                    6 => reserved.push((s.reserve(), None)),
                    7 if !reserved.is_empty() => {
                        let i = rng.gen_range_usize(0..reserved.len());
                        let at = match reserved[i].1 {
                            Some(key) if key > now => key,
                            _ => now.saturating_add(rng.gen_range_u64(0..2_000)),
                        };
                        // A reserved (old) seq materializing at the current
                        // floor pops "behind" later seqs already popped
                        // there — legal for the queue, but the strict audit
                        // rightly flags it (the engine can't produce it).
                        if cfg!(feature = "strict-invariants") && at <= now {
                            continue;
                        }
                        let (seq, _) = reserved.swap_remove(i);
                        let list = s.seqs_at(at, false);
                        if list.len() >= 3 {
                            let below = list.iter().filter(|&&x| x < seq).count();
                            match below {
                                0 => shapes.list_head += 1,
                                n if n == list.len() => shapes.list_tail += 1,
                                _ => shapes.list_mid += 1,
                            }
                        }
                        s.push(at, Some(seq));
                    }
                    // Materialize a reservation at exactly the floor. A seq
                    // above the last popped one is still ahead of the pop
                    // cursor, so this is legal under the strict audit too —
                    // and it must land *between* the cohort's pending seqs,
                    // not behind them.
                    8 => {
                        let last = s.q.last_popped_seq();
                        let Some(i) = reserved.iter().position(|&(seq, _)| seq > last) else {
                            continue;
                        };
                        let (seq, _) = reserved.swap_remove(i);
                        let at_floor = |&(at, x, _): &(u64, u64, u64)| at == now && x > seq;
                        shapes.mid_cohort += u32::from(s.m.pending.iter().any(at_floor));
                        s.push(now, Some(seq));
                    }
                    // Tie with the far heap: a far entry the floor has since
                    // come within a span of gets wheel company at its exact
                    // timestamp, under a fresh (larger) seq or a reserved
                    // (smaller) one — the other tier either way.
                    9 => {
                        let near = |&&(at, _, id): &&(u64, u64, u64)| {
                            s.far[id as usize] && at > now && at - now < SPAN
                        };
                        let Some(&(at, far_seq, _)) = s.m.pending.iter().find(near) else {
                            continue;
                        };
                        let seq = match reserved.iter().position(|&(seq, _)| seq < far_seq) {
                            Some(i) if rng.gen_bool(0.5) => Some(reserved.swap_remove(i).0),
                            _ => None,
                        };
                        s.push(at, seq);
                        shapes.tier_tie += 1;
                        shapes.tier_tie_reserved += u32::from(seq.is_some());
                        let wheel = s.seqs_at(at, false);
                        let around = wheel.iter().any(|&x| x < far_seq)
                            && wheel.iter().any(|&x| x > far_seq);
                        shapes.tier_tie_interleaved += u32::from(around);
                    }
                    _ => {
                        s.pop();
                    }
                }
            }
            // Drain: the tails must match exactly.
            while s.pop() {}
            shapes.revolutions = shapes.revolutions.max(s.revolutions);
        }
        for (shape, count) in [
            ("mid_cohort", shapes.mid_cohort),
            ("straddle", shapes.straddle),
            ("tier_tie", shapes.tier_tie),
            ("tier_tie_reserved", shapes.tier_tie_reserved),
            ("tier_tie_interleaved", shapes.tier_tie_interleaved),
            ("list_head", shapes.list_head),
            ("list_mid", shapes.list_mid),
            ("list_tail", shapes.list_tail),
        ] {
            assert!(count > 0, "shape {shape} never occurred: {shapes:?}");
        }
        assert!(
            shapes.revolutions >= 4,
            "no case crossed four wheel revolutions: {shapes:?}"
        );
    }

    /// Moves a fresh queue's floor to `floor`, schedules `keys`, and drains:
    /// `peek_time` must name each pop in ascending key order, and popped +
    /// pending must equal pushed after every operation.
    fn drains_sorted_from(floor: u64, keys: &[u64]) {
        let mut q = EventQueue::new();
        let mut pops = 0u64;
        let conserved = |q: &EventQueue<u64>, pops: u64| {
            assert_eq!(pops + q.len() as u64, q.scheduled_total(), "floor {floor}");
            #[cfg(feature = "profile")]
            assert_eq!(q.pops_total(), pops, "floor {floor}");
        };
        q.schedule(SimTime::from_ns(floor), floor);
        assert_eq!(q.pop(), Some((SimTime::from_ns(floor), floor)));
        pops += 1;
        conserved(&q, pops);
        for &k in keys {
            q.schedule(SimTime::from_ns(k), k);
            conserved(&q, pops);
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        for k in sorted {
            let at = SimTime::from_ns(k);
            assert_eq!(q.peek_time(), Some(at), "floor {floor}");
            assert_eq!(q.pop(), Some((at, k)), "floor {floor}");
            pops += 1;
            conserved(&q, pops);
        }
        assert_eq!((q.peek_time(), q.pop(), q.len()), (None, None, 0));
        conserved(&q, pops);
    }

    /// The occupancy-bitmap search at its boundaries. Slot = key mod `W`;
    /// a bitmap word covers 64 slots, a summary word 64 bitmap words.
    #[test]
    fn next_occupied_slot_search_boundaries() {
        const SPAN: u64 = W as u64;
        let rev = 3 * SPAN;
        // Empty, and a single entry at the floor itself.
        drains_sorted_from(rev + 100, &[]);
        drains_sorted_from(rev + 100, &[rev + 100]);
        // The only entry sits in the floor's own word *below* its bit: the
        // search goes all the way round (slot 37 -> slot 5, a span later).
        drains_sorted_from(rev + 37, &[rev + SPAN + 5]);
        // Bit 63 of one word and bit 0 of the next, floor in the same word
        // and on bit 63 itself.
        drains_sorted_from(rev + 10, &[rev + 64, rev + 63]);
        drains_sorted_from(rev + 63, &[rev + 64]);
        // Across a summary-word boundary (bitmap word 63 -> 64), with the
        // floor on the last bit of its summary word's last bitmap word.
        drains_sorted_from(rev + 63 * 64 + 5, &[rev + 64 * 64]);
        drains_sorted_from(rev + 64 * 64 - 1, &[rev + 64 * 64 + 1, rev + 2 * 64 * 64]);
        // Floor at slot 0, entry in the table's last slot; and the mirror
        // image, floor in the last slot and the entry wrapping to slot 0.
        drains_sorted_from(rev, &[rev + SPAN - 1]);
        drains_sorted_from(rev + SPAN - 1, &[rev + SPAN, rev + 2 * SPAN - 2]);
        // A span exactly: the far heap's first key, alongside the wheel's
        // last (which shares slot arithmetic with nothing else pending).
        drains_sorted_from(rev + 7, &[rev + SPAN + 7, rev + SPAN + 6, rev + 7]);
    }

    /// Keys within half a span of `u64::MAX`: neither the wheel/far split
    /// (`key - top`) nor the slot-key decode may overflow (tier-1 runs with
    /// overflow checks on).
    #[test]
    fn near_u64_max_floor_does_not_overflow() {
        let floor = u64::MAX - W as u64 / 2;
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(floor), "floor");
        let held = q.reserve_seq();
        q.schedule(SimTime::from_ns(floor), "cohort");
        assert_eq!(q.pop(), Some((SimTime::from_ns(floor), "floor")));
        q.schedule(SimTime::MAX, "eon");
        q.schedule(SimTime::from_ns(u64::MAX - 1), "almost");
        q.schedule(SimTime::MAX, "eon2");
        // Ahead of "cohort" at the floor, though scheduled last.
        q.schedule_with_seq(SimTime::from_ns(floor), held, "reserved");
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(floor)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let expected = [
            (SimTime::from_ns(floor), "reserved"),
            (SimTime::from_ns(floor), "cohort"),
            (SimTime::from_ns(u64::MAX - 1), "almost"),
            (SimTime::MAX, "eon"),
            (SimTime::MAX, "eon2"),
        ];
        assert_eq!(order, expected);
        // At the very top of the range everything clamps into one slot.
        q.schedule(SimTime::MAX, "last");
        assert_eq!(q.pop(), Some((SimTime::MAX, "last")));
        assert_eq!(q.pop(), None);
    }
}
