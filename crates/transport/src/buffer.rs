//! Byte-range bookkeeping: receiver reassembly and the sender scoreboard.
//!
//! Both sides of SACK-based recovery reduce to maintaining a set of
//! non-overlapping byte ranges: the receiver tracks which bytes have
//! arrived (to compute the cumulative ACK and SACK blocks), the sender
//! mirrors the receiver's state (to find retransmission holes). [`RangeSet`]
//! is the shared core; [`RecvBuffer`] and [`Scoreboard`] are thin,
//! intent-revealing wrappers.

use netsim::packet::SackBlock;

/// A set of non-overlapping, non-adjacent half-open byte ranges.
///
/// # Examples
///
/// ```
/// use transport::buffer::RangeSet;
///
/// let mut s = RangeSet::new();
/// s.insert(0, 10);
/// s.insert(20, 30);
/// s.insert(10, 20); // bridges the gap
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, 30)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RangeSet {
    /// `(start, end)` in ascending order. Ranges are disjoint and
    /// non-adjacent, so the ends ascend too and either field can key a
    /// `partition_point`. A set has exactly one such representation.
    spans: Vec<(u64, u64)>,
}

impl RangeSet {
    /// Creates an empty set.
    pub fn new() -> RangeSet {
        RangeSet::default()
    }

    /// Index of the first range ending above `pos`: the one containing
    /// `pos`, or else the first one wholly above it.
    fn first_ending_above(&self, pos: u64) -> usize {
        self.spans.partition_point(|r| r.1 <= pos)
    }

    /// Inserts `[start, end)`, merging with overlapping or adjacent ranges.
    ///
    /// Empty ranges are ignored.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // In-order data and fresh SACK blocks land on or past the last range.
        if let Some(last) = self.spans.last_mut() {
            if start >= last.0 {
                if start <= last.1 {
                    last.1 = last.1.max(end);
                } else {
                    self.spans.push((start, end));
                }
                return;
            }
        }
        // `lo..hi` are the ranges `[start, end)` overlaps or touches.
        let lo = self.spans.partition_point(|r| r.1 < start);
        let hi = lo + self.spans[lo..].partition_point(|r| r.0 <= end);
        if lo == hi {
            self.spans.insert(lo, (start, end));
        } else {
            let merged = (start.min(self.spans[lo].0), end.max(self.spans[hi - 1].1));
            self.spans[lo] = merged;
            self.spans.drain(lo + 1..hi);
        }
    }

    /// Removes all bytes below `cut`.
    pub fn remove_below(&mut self, cut: u64) {
        // A cumulative ACK usually clips the first range or misses the set.
        if self.spans.first().is_some_and(|r| r.1 <= cut) {
            let gone = self.first_ending_above(cut);
            self.spans.drain(..gone);
        }
        if let Some(first) = self.spans.first_mut() {
            first.0 = first.0.max(cut);
        }
    }

    /// Whether byte `pos` is contained in the set.
    pub fn contains(&self, pos: u64) -> bool {
        self.range_end_at(pos).is_some()
    }

    /// Whether the whole of `[start, end)` is contained.
    pub fn covers(&self, start: u64, end: u64) -> bool {
        start >= end || self.range_end_at(start).is_some_and(|e| e >= end)
    }

    /// End of the range containing `pos`, if any.
    pub fn range_end_at(&self, pos: u64) -> Option<u64> {
        let r = self.spans.get(self.first_ending_above(pos))?;
        (r.0 <= pos).then_some(r.1)
    }

    /// The first gap at or after `from` and strictly before `limit`, as
    /// `(gap_start, gap_end)` clipped to `limit`.
    pub fn first_gap(&self, from: u64, limit: u64) -> Option<(u64, u64)> {
        let mut next = self.first_ending_above(from);
        let mut pos = from;
        if let Some(r) = self.spans.get(next).filter(|r| r.0 <= from) {
            // `from` is inside a range: the gap starts where that one ends.
            pos = r.1;
            next += 1;
        }
        let gap_end = self.spans.get(next).map_or(limit, |r| r.0.min(limit));
        (pos < limit).then_some((pos, gap_end))
    }

    /// Total bytes in the set at or above `floor`.
    pub fn bytes_above(&self, floor: u64) -> u64 {
        self.spans[self.first_ending_above(floor)..]
            .iter()
            .map(|&(s, e)| e - s.max(floor))
            .sum()
    }

    /// Largest byte-end in the set, or `None` when empty.
    pub fn max_end(&self) -> Option<u64> {
        self.spans.last().map(|r| r.1)
    }

    /// Iterates ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.spans.iter().copied()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of disjoint ranges.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Receiver-side reassembly buffer.
///
/// # Examples
///
/// ```
/// use transport::RecvBuffer;
///
/// let mut rb = RecvBuffer::new(4000);
/// rb.insert(0, 1000);
/// rb.insert(2000, 3000); // out of order
/// assert_eq!(rb.cumulative(), 1000);
/// assert_eq!(rb.sack_blocks(3).len(), 1);
/// rb.insert(1000, 2000);
/// rb.insert(3000, 4000);
/// assert!(rb.is_complete());
/// ```
#[derive(Clone, Debug)]
pub struct RecvBuffer {
    ranges: RangeSet,
    flow_bytes: u64,
}

impl RecvBuffer {
    /// Creates a buffer expecting `flow_bytes` total bytes.
    pub fn new(flow_bytes: u64) -> RecvBuffer {
        RecvBuffer {
            ranges: RangeSet::new(),
            flow_bytes,
        }
    }

    /// Records arrival of payload `[start, end)`.
    pub fn insert(&mut self, start: u64, end: u64) {
        self.ranges.insert(start, end.min(self.flow_bytes));
    }

    /// The cumulative ACK point: bytes received contiguously from zero.
    pub fn cumulative(&self) -> u64 {
        match self.ranges.spans.first() {
            Some(&(0, end)) => end,
            _ => 0,
        }
    }

    /// Whether every byte of the flow has arrived.
    pub fn is_complete(&self) -> bool {
        self.cumulative() >= self.flow_bytes
    }

    /// Up to `max` SACK blocks describing ranges above the cumulative point,
    /// in ascending order.
    pub fn sack_blocks(&self, max: usize) -> Vec<SackBlock> {
        let cum = self.cumulative();
        self.ranges
            .iter()
            .filter(|&(s, _)| s > cum)
            .take(max)
            .map(|(s, e)| SackBlock { start: s, end: e })
            .collect()
    }
}

/// Sender-side SACK scoreboard: the sender's view of which bytes above
/// `snd_una` the receiver holds.
///
/// # Examples
///
/// ```
/// use transport::Scoreboard;
/// use netsim::packet::SackBlock;
///
/// let mut sb = Scoreboard::new();
/// sb.add_block(SackBlock { start: 2000, end: 3000 });
/// // Bytes [1000, 2000) are a hole below the highest SACK: lost under
/// // dupACK-threshold-1.
/// assert_eq!(sb.first_hole(1000), Some((1000, 2000)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Scoreboard {
    sacked: RangeSet,
}

impl Scoreboard {
    /// Creates an empty scoreboard.
    pub fn new() -> Scoreboard {
        Scoreboard::default()
    }

    /// Records a SACK block from an incoming ACK.
    pub fn add_block(&mut self, block: SackBlock) {
        self.sacked.insert(block.start, block.end);
    }

    /// Advances the cumulative ACK point, discarding state below it.
    pub fn on_cumulative_ack(&mut self, una: u64) {
        self.sacked.remove_below(una);
    }

    /// Highest SACKed byte end, if any.
    pub fn highest_sacked(&self) -> Option<u64> {
        self.sacked.max_end()
    }

    /// SACKed bytes at or above `floor` (for pipe/flight estimation).
    pub fn sacked_bytes_above(&self, floor: u64) -> u64 {
        self.sacked.bytes_above(floor)
    }

    /// Whether `[start, end)` is entirely SACKed.
    pub fn is_sacked(&self, start: u64, end: u64) -> bool {
        self.sacked.covers(start, end)
    }

    /// The first un-SACKed range at or after `from` and below the highest
    /// SACKed byte — i.e. the next segment considered lost under
    /// dupACK-threshold 1 (§5: out-of-order delivery is rare under ECMP).
    pub fn first_hole(&self, from: u64) -> Option<(u64, u64)> {
        let limit = self.highest_sacked()?;
        self.sacked.first_gap(from, limit)
    }

    /// Whether any hole exists at or above `from` (loss indication).
    pub fn has_holes(&self, from: u64) -> bool {
        self.first_hole(from).is_some()
    }

    /// The first un-SACKed range in `[from, limit)`, regardless of the
    /// highest SACKed byte — used by RoCE senders to re-send everything
    /// outstanding after a timeout.
    pub fn first_unsacked_below(&self, from: u64, limit: u64) -> Option<(u64, u64)> {
        self.sacked.first_gap(from, limit)
    }
}

/// The tree-backed range set the flat one replaced, kept verbatim as the
/// reference `tests::lockstep_with_the_tree_reference` differs against.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    #[derive(Clone, Debug, Default)]
    pub struct RangeSet {
        map: BTreeMap<u64, u64>, // start -> end
    }

    impl RangeSet {
        /// Creates an empty set.
        pub fn new() -> RangeSet {
            RangeSet::default()
        }

        /// Inserts `[start, end)`, merging with overlapping or adjacent ranges.
        ///
        /// Empty ranges are ignored.
        pub fn insert(&mut self, start: u64, end: u64) {
            if start >= end {
                return;
            }
            let mut s = start;
            let mut e = end;
            // Merge with a predecessor that overlaps or touches.
            if let Some((&ps, &pe)) = self.map.range(..=s).next_back() {
                if pe >= s {
                    s = ps;
                    e = e.max(pe);
                    self.map.remove(&ps);
                }
            }
            // Merge with all successors starting within [s, e].
            let successors: Vec<u64> = self.map.range(s..=e).map(|(&k, _)| k).collect();
            for k in successors {
                let pe = self.map.remove(&k).expect("key just observed");
                e = e.max(pe);
            }
            self.map.insert(s, e);
        }

        /// Removes all bytes below `cut`.
        pub fn remove_below(&mut self, cut: u64) {
            let keys: Vec<u64> = self.map.range(..cut).map(|(&k, _)| k).collect();
            for k in keys {
                let e = self.map.remove(&k).expect("key just observed");
                if e > cut {
                    self.map.insert(cut, e);
                }
            }
        }

        /// Whether byte `pos` is contained in the set.
        pub fn contains(&self, pos: u64) -> bool {
            self.map
                .range(..=pos)
                .next_back()
                .is_some_and(|(_, &e)| e > pos)
        }

        /// Whether the whole of `[start, end)` is contained.
        pub fn covers(&self, start: u64, end: u64) -> bool {
            if start >= end {
                return true;
            }
            self.map
                .range(..=start)
                .next_back()
                .is_some_and(|(_, &e)| e >= end)
        }

        /// End of the range containing `pos`, if any.
        pub fn range_end_at(&self, pos: u64) -> Option<u64> {
            self.map
                .range(..=pos)
                .next_back()
                .and_then(|(_, &e)| (e > pos).then_some(e))
        }

        /// The first gap at or after `from` and strictly before `limit`, as
        /// `(gap_start, gap_end)` clipped to `limit`.
        pub fn first_gap(&self, from: u64, limit: u64) -> Option<(u64, u64)> {
            let mut pos = from;
            while pos < limit {
                match self.range_end_at(pos) {
                    Some(e) => pos = e,
                    None => {
                        // Gap starts at `pos`; it ends at the next range start.
                        let gap_end = self
                            .map
                            .range(pos..)
                            .next()
                            .map(|(&s, _)| s)
                            .unwrap_or(limit)
                            .min(limit);
                        return Some((pos, gap_end));
                    }
                }
            }
            None
        }

        /// Total bytes in the set at or above `floor`.
        pub fn bytes_above(&self, floor: u64) -> u64 {
            self.map
                .iter()
                .map(|(&s, &e)| e.saturating_sub(s.max(floor)).min(e - s))
                .sum()
        }

        /// Largest byte-end in the set, or `None` when empty.
        pub fn max_end(&self) -> Option<u64> {
            self.map.iter().next_back().map(|(_, &e)| e)
        }

        /// Iterates ranges in ascending order.
        pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
            self.map.iter().map(|(&s, &e)| (s, e))
        }

        /// Whether the set is empty.
        pub fn is_empty(&self) -> bool {
            self.map.is_empty()
        }

        /// Number of disjoint ranges.
        pub fn len(&self) -> usize {
            self.map.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rangeset_merges_overlaps_and_adjacency() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        s.insert(30, 40);
        assert_eq!(s.len(), 2);
        s.insert(15, 35); // bridges both
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(10, 40)]);
        s.insert(40, 50); // adjacent
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(10, 50)]);
        s.insert(0, 5); // disjoint
        assert_eq!(s.len(), 2);
        s.insert(2, 3); // contained
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn rangeset_ignores_empty() {
        let mut s = RangeSet::new();
        s.insert(5, 5);
        assert!(s.is_empty());
    }

    #[test]
    fn rangeset_remove_below_splits() {
        let mut s = RangeSet::new();
        s.insert(0, 100);
        s.remove_below(40);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(40, 100)]);
        s.remove_below(200);
        assert!(s.is_empty());
    }

    #[test]
    fn rangeset_queries() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        s.insert(30, 40);
        assert!(s.contains(10));
        assert!(s.contains(19));
        assert!(!s.contains(20));
        assert!(!s.contains(25));
        assert!(s.covers(10, 20));
        assert!(!s.covers(10, 21));
        assert!(s.covers(15, 15), "empty range trivially covered");
        assert_eq!(s.range_end_at(12), Some(20));
        assert_eq!(s.range_end_at(25), None);
        assert_eq!(s.max_end(), Some(40));
        assert_eq!(s.bytes_above(0), 20);
        assert_eq!(s.bytes_above(15), 15);
        assert_eq!(s.bytes_above(35), 5);
    }

    #[test]
    fn rangeset_first_gap() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(20, 30);
        assert_eq!(s.first_gap(0, 30), Some((10, 20)));
        assert_eq!(s.first_gap(10, 30), Some((10, 20)));
        assert_eq!(s.first_gap(20, 30), None);
        assert_eq!(s.first_gap(0, 50), Some((10, 20)));
        // Gap after last range, clipped by limit.
        assert_eq!(s.first_gap(25, 50), Some((30, 50)));
        // From inside the leading range.
        assert_eq!(s.first_gap(5, 8), None);
    }

    #[test]
    fn recv_buffer_cumulative_and_completion() {
        let mut rb = RecvBuffer::new(3000);
        assert_eq!(rb.cumulative(), 0);
        rb.insert(1000, 2000);
        assert_eq!(rb.cumulative(), 0, "no prefix yet");
        rb.insert(0, 1000);
        assert_eq!(rb.cumulative(), 2000);
        assert!(!rb.is_complete());
        rb.insert(2000, 3000);
        assert!(rb.is_complete());
    }

    #[test]
    fn recv_buffer_clips_past_flow_end() {
        let mut rb = RecvBuffer::new(1500);
        rb.insert(0, 4000);
        assert_eq!(rb.cumulative(), 1500);
        assert!(rb.is_complete());
    }

    #[test]
    fn recv_buffer_sack_blocks_ascending_above_cum() {
        let mut rb = RecvBuffer::new(100_000);
        rb.insert(0, 1000);
        rb.insert(2000, 3000);
        rb.insert(5000, 6000);
        rb.insert(8000, 9000);
        let blocks = rb.sack_blocks(2);
        assert_eq!(blocks.len(), 2);
        assert_eq!(
            blocks[0],
            SackBlock {
                start: 2000,
                end: 3000
            }
        );
        assert_eq!(
            blocks[1],
            SackBlock {
                start: 5000,
                end: 6000
            }
        );
        let all = rb.sack_blocks(8);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn scoreboard_holes_and_acks() {
        let mut sb = Scoreboard::new();
        assert!(!sb.has_holes(0));
        sb.add_block(SackBlock {
            start: 3000,
            end: 4000,
        });
        sb.add_block(SackBlock {
            start: 5000,
            end: 6000,
        });
        // una = 1000: hole [1000, 3000), then [4000, 5000).
        assert_eq!(sb.first_hole(1000), Some((1000, 3000)));
        assert_eq!(sb.first_hole(3000), Some((4000, 5000)));
        assert_eq!(sb.first_hole(5000), None);
        assert!(sb.is_sacked(3000, 4000));
        assert!(!sb.is_sacked(2999, 4000));
        // Cumulative ACK to 4500 clears low state.
        sb.on_cumulative_ack(4500);
        assert_eq!(sb.first_hole(4500), Some((4500, 5000)));
        assert_eq!(sb.sacked_bytes_above(0), 1000);
    }

    #[test]
    fn scoreboard_no_hole_above_highest_sack() {
        let mut sb = Scoreboard::new();
        sb.add_block(SackBlock {
            start: 1000,
            end: 2000,
        });
        // Bytes above 2000 are not holes (nothing SACKed above them).
        assert_eq!(sb.first_hole(2000), None);
        assert_eq!(sb.first_hole(0), Some((0, 1000)));
    }

    /// What a range set is checked against: the answers of an independent
    /// model to every query [`RangeSet`] has.
    trait Oracle {
        fn ranges(&self) -> Vec<(u64, u64)>;
        fn contains(&self, pos: u64) -> bool;
        fn covers(&self, start: u64, end: u64) -> bool;
        fn range_end_at(&self, pos: u64) -> Option<u64>;
        fn first_gap(&self, from: u64, limit: u64) -> Option<(u64, u64)>;
        fn bytes_above(&self, floor: u64) -> u64;
    }

    impl Oracle for reference::RangeSet {
        fn ranges(&self) -> Vec<(u64, u64)> {
            self.iter().collect()
        }
        fn contains(&self, pos: u64) -> bool {
            self.contains(pos)
        }
        fn covers(&self, start: u64, end: u64) -> bool {
            self.covers(start, end)
        }
        fn range_end_at(&self, pos: u64) -> Option<u64> {
            self.range_end_at(pos)
        }
        fn first_gap(&self, from: u64, limit: u64) -> Option<(u64, u64)> {
            self.first_gap(from, limit)
        }
        fn bytes_above(&self, floor: u64) -> u64 {
            self.bytes_above(floor)
        }
    }

    /// One `bool` per byte, every query a linear scan.
    struct Bits(Vec<bool>);

    impl Oracle for Bits {
        fn ranges(&self) -> Vec<(u64, u64)> {
            let mut out = Vec::new();
            let mut pos = 0;
            while let Some((s, e)) = self.first_gap_of(false, pos, self.0.len() as u64) {
                out.push((s, e));
                pos = e;
            }
            out
        }
        fn contains(&self, pos: u64) -> bool {
            self.0.get(pos as usize) == Some(&true)
        }
        fn covers(&self, start: u64, end: u64) -> bool {
            (start..end).all(|p| self.contains(p))
        }
        fn range_end_at(&self, pos: u64) -> Option<u64> {
            self.contains(pos)
                .then(|| (pos..).find(|&p| !self.contains(p)).expect("bitset ends"))
        }
        fn first_gap(&self, from: u64, limit: u64) -> Option<(u64, u64)> {
            self.first_gap_of(true, from, limit)
        }
        fn bytes_above(&self, floor: u64) -> u64 {
            (floor..self.0.len() as u64)
                .filter(|&p| self.contains(p))
                .count() as u64
        }
    }

    impl Bits {
        /// The first run of bytes in `[from, limit)` whose membership is
        /// not `member`.
        fn first_gap_of(&self, member: bool, from: u64, limit: u64) -> Option<(u64, u64)> {
            let start = (from..limit).find(|&p| self.contains(p) != member)?;
            let end = (start..limit).find(|&p| self.contains(p) == member);
            Some((start, end.unwrap_or(limit)))
        }
    }

    /// `s` holds `oracle`'s ranges in canonical form, and it, a
    /// [`RecvBuffer`] of `flow_bytes` and a [`Scoreboard`] over it answer
    /// every query as `oracle` does, at each probe and each pair of probes.
    fn assert_agrees(
        s: &RangeSet,
        oracle: &impl Oracle,
        flow_bytes: u64,
        probes: &[u64],
        at: &str,
    ) {
        let want = oracle.ranges();
        let got: Vec<(u64, u64)> = s.iter().collect();
        assert_eq!(got, want, "{at}: iter");
        assert!(
            got.iter().all(|r| r.0 < r.1) && got.windows(2).all(|w| w[0].1 < w[1].0),
            "{at}: not ascending, disjoint and non-adjacent: {got:?}"
        );
        assert_eq!(s.len(), want.len(), "{at}: len");
        assert_eq!(s.is_empty(), want.is_empty(), "{at}: is_empty");
        let max_end = want.last().map(|r| r.1);
        assert_eq!(s.max_end(), max_end, "{at}: max_end");

        let rb = RecvBuffer {
            ranges: s.clone(),
            flow_bytes,
        };
        let sb = Scoreboard { sacked: s.clone() };
        let cum = oracle.range_end_at(0).unwrap_or(0);
        assert_eq!(rb.cumulative(), cum, "{at}: cumulative");
        assert_eq!(rb.is_complete(), cum >= flow_bytes, "{at}: is_complete");
        let blocks: Vec<SackBlock> = want
            .iter()
            .filter(|r| r.0 > cum)
            .take(8)
            .map(|&(start, end)| SackBlock { start, end })
            .collect();
        assert_eq!(rb.sack_blocks(8), blocks, "{at}: sack_blocks");

        for &a in probes {
            assert_eq!(s.contains(a), oracle.contains(a), "{at}: contains({a})");
            let end = oracle.range_end_at(a);
            assert_eq!(s.range_end_at(a), end, "{at}: range_end_at({a})");
            let above = oracle.bytes_above(a);
            assert_eq!(s.bytes_above(a), above, "{at}: bytes_above({a})");
            assert_eq!(
                sb.sacked_bytes_above(a),
                above,
                "{at}: sacked_bytes_above({a})"
            );
            let hole = max_end.and_then(|limit| oracle.first_gap(a, limit));
            assert_eq!(sb.first_hole(a), hole, "{at}: first_hole({a})");
            for &b in probes {
                let covered = oracle.covers(a, b);
                assert_eq!(s.covers(a, b), covered, "{at}: covers({a}, {b})");
                assert_eq!(sb.is_sacked(a, b), covered, "{at}: is_sacked({a}, {b})");
                let gap = oracle.first_gap(a, b);
                assert_eq!(s.first_gap(a, b), gap, "{at}: first_gap({a}, {b})");
                assert_eq!(
                    sb.first_unsacked_below(a, b),
                    gap,
                    "{at}: first_unsacked_below({a}, {b})"
                );
            }
        }
    }

    /// The bytes an operation on `[lo, hi)` can have disturbed, plus `extra`
    /// random ones below `span`.
    fn probes_around(
        rng: &mut eventsim::SimRng,
        lo: u64,
        hi: u64,
        span: u64,
        extra: usize,
    ) -> Vec<u64> {
        let mut probes = vec![
            0,
            lo.saturating_sub(1),
            lo,
            lo + 1,
            hi.saturating_sub(1),
            hi,
            hi + 1,
        ];
        probes.extend((0..extra).map(|_| rng.gen_range_u64(0..span)));
        probes
    }

    /// RangeSet matches a naive bitset model under randomly generated
    /// inserts and cuts (seeded, so failures reproduce).
    #[test]
    fn prop_rangeset_model() {
        let mut rng = eventsim::SimRng::seed_from(0x5AC_0FF);
        for case in 0..96 {
            let mut s = RangeSet::new();
            let mut model = Bits(vec![false; 220]);
            let ops = rng.gen_range_usize(1..60);
            for op in 0..ops {
                let a = rng.gen_range_u64(0..200);
                let b = rng.gen_range_u64(0..200);
                let (lo, hi) = (a.min(b), a.max(b));
                if rng.gen_bool(0.5) {
                    s.remove_below(lo);
                    model.0[..lo as usize].fill(false);
                } else {
                    s.insert(lo, hi);
                    model.0[lo as usize..hi as usize].fill(true);
                }
                let probes = probes_around(&mut rng, lo, hi, 210, 3);
                assert_agrees(
                    &s,
                    &model,
                    100 + a,
                    &probes,
                    &format!("case {case} op {op}"),
                );
            }
        }
    }

    /// How often the lockstep run landed on each path of the flat set,
    /// judged on the reference's state before the operation.
    #[derive(Debug, Default)]
    struct Shapes {
        tail_extend: u32,
        tail_append: u32,
        head_extend: u32,
        bridge_of_three: u32,
        contained: u32,
        cut_inside: u32,
        cut_past_end: u32,
        wide: u32,
    }

    /// The flat [`RangeSet`] and the `BTreeMap` one it replaced, driven in
    /// lockstep: identical ranges and identical answers after every
    /// operation, over dense cases (merges, bridges, cuts of every kind)
    /// and sparse ones (hundreds of live ranges). Short under
    /// `debug_assertions` (tier-1), long in a release test run (CI).
    #[test]
    fn lockstep_with_the_tree_reference() {
        let cases = if cfg!(debug_assertions) { 12 } else { 600 };
        let mut rng = eventsim::SimRng::seed_from(0x0F1A_75E7);
        let mut shapes = Shapes::default();
        for case in 0..cases {
            let sparse = case % 3 == 2;
            let span: u64 = if sparse { 1 << 16 } else { 256 };
            let mut flat = RangeSet::new();
            let mut tree = reference::RangeSet::new();
            for op in 0..600 {
                let first = tree.iter().next().map_or(0, |r| r.0);
                let last_start = tree.iter().last().map_or(0, |r| r.0);
                let last_end = tree.max_end().unwrap_or(0);
                let tiny = 1 + rng.gen_range_u64(0..8);
                let scattered = if sparse { 80 } else { 30 };
                let pick = rng.gen_range_u64(0..100);
                let (lo, hi) = if pick < scattered {
                    let at = rng.gen_range_u64(0..span);
                    (at, at + tiny)
                } else if pick < scattered + 6 {
                    // On the last range's end, or just past it.
                    let at = last_end + rng.gen_range_u64(0..3);
                    (at, at + tiny)
                } else if pick < scattered + 10 {
                    // Reaching down onto the first range, or just short of it.
                    let to = first + rng.gen_range_u64(0..2);
                    (to.saturating_sub(tiny), to)
                } else if pick < scattered + 14 {
                    // Inside a range already held.
                    let nth = rng.gen_range_usize(0..tree.len().max(1));
                    let (s, e) = tree.iter().nth(nth).unwrap_or((0, 1));
                    let at = rng.gen_range_u64(s..e);
                    (at, rng.gen_range_u64(at..e) + 1)
                } else if pick < if sparse { 96 } else { 80 } {
                    // Two points up to 256 bytes apart (sometimes the same
                    // one: an empty range).
                    let (a, b) = (rng.gen_range_u64(0..span), rng.gen_range_u64(0..256));
                    (a, (a + b).min(span))
                } else {
                    // A cut: mostly a cumulative ACK's small advance; dense
                    // cases also cut anywhere and past the end.
                    let cut = match rng.gen_range_u64(0..if sparse { 2 } else { 4 }) {
                        2 => rng.gen_range_u64(0..span),
                        3 => last_end + rng.gen_range_u64(0..2),
                        _ => first + rng.gen_range_u64(0..8),
                    };
                    shapes.cut_inside += u32::from(cut > 0 && tree.covers(cut - 1, cut + 1));
                    shapes.cut_past_end += u32::from(!tree.is_empty() && cut >= last_end);
                    flat.remove_below(cut);
                    tree.remove_below(cut);
                    (cut, cut) // nothing to insert; probe around the cut
                };
                if lo < hi {
                    let touched = tree.iter().filter(|r| r.1 >= lo && r.0 <= hi).count();
                    let on_last = !tree.is_empty() && lo >= last_start;
                    shapes.tail_extend += u32::from(on_last && lo <= last_end && hi > last_end);
                    shapes.tail_append += u32::from(on_last && lo > last_end);
                    shapes.head_extend += u32::from(touched > 0 && lo < first && hi >= first);
                    shapes.bridge_of_three += u32::from(touched >= 3);
                    shapes.contained += u32::from(tree.covers(lo, hi));
                    flat.insert(lo, hi);
                    tree.insert(lo, hi);
                }
                shapes.wide += u32::from(tree.len() >= 200);
                let probes = probes_around(&mut rng, lo, hi, span + 16, 3);
                let flow_bytes = probes[rng.gen_range_usize(0..probes.len())];
                assert_agrees(
                    &flat,
                    &tree,
                    flow_bytes,
                    &probes,
                    &format!("case {case} op {op}"),
                );
            }
        }
        let Shapes {
            tail_extend,
            tail_append,
            head_extend,
            bridge_of_three,
            contained,
            cut_inside,
            cut_past_end,
            wide,
        } = shapes;
        for (shape, hits) in [
            ("tail extend", tail_extend),
            ("tail append", tail_append),
            ("head extend", head_extend),
            ("bridge of >= 3 ranges", bridge_of_three),
            ("contained insert", contained),
            ("cut inside a range", cut_inside),
            ("cut past the end", cut_past_end),
            (">= 200 live ranges", wide),
        ] {
            assert!(hits > 0, "the generator never produced: {shape}");
        }
    }

    /// Receiver reassembly completes for any arrival permutation of a
    /// segmented flow, and cumulative never regresses.
    #[test]
    fn prop_reassembly_completes() {
        let mut rng = eventsim::SimRng::seed_from(0xBEEF);
        for case in 0..128 {
            // Random permutation of the 20 segments (Fisher–Yates).
            let mut order: Vec<u64> = (0..20).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range_usize(0..i + 1));
            }
            let mut rb = RecvBuffer::new(20 * 100);
            let mut last_cum = 0;
            for &i in &order {
                rb.insert(i * 100, (i + 1) * 100);
                let c = rb.cumulative();
                assert!(c >= last_cum, "case {case}: cumulative regressed");
                last_cum = c;
            }
            assert!(rb.is_complete(), "case {case}");
        }
    }
}
