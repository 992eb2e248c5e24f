//! Trace sinks: where emitted events go.

use std::collections::BTreeMap;

use eventsim::SimTime;

use crate::event::{DropWhy, RtoCauseCounts, TraceEvent};

/// A consumer of trace events.
///
/// Implementations must be cheap per-event; they run inline on the
/// simulation's hot paths whenever tracing is enabled.
pub trait TraceSink {
    /// Records one event at simulation time `t`.
    fn record(&mut self, t: SimTime, ev: &TraceEvent);
}

/// Keeps every event, in order: the whole run as a list, for tests that
/// read it back.
impl TraceSink for Vec<(SimTime, TraceEvent)> {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        self.push((t, ev.clone()));
    }
}

/// Aggregate counters maintained by [`CountingSink`], both globally and per
/// switch node.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TraceCounts {
    /// Packets admitted to egress queues.
    pub enqueues: u64,
    /// Packets leaving egress queues.
    pub dequeues: u64,
    /// Color-threshold drops.
    pub drops_color: u64,
    /// Dynamic-threshold drops.
    pub drops_dt: u64,
    /// Buffer-overflow drops.
    pub drops_overflow: u64,
    /// Wire-corruption losses.
    pub drops_wire: u64,
    /// Frames destroyed on failed (down) links.
    pub drops_down: u64,
    /// Drops whose victim was a green (important) data packet.
    pub drops_green: u64,
    /// Packets CE-marked.
    pub ce_marked: u64,
    /// PFC PAUSE frames sent.
    pub pauses: u64,
    /// PFC RESUME frames sent.
    pub resumes: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Fast-retransmit (or NACK-recovery) entries.
    pub fast_retx: u64,
    /// Flows started.
    pub flows_started: u64,
    /// Flows finished.
    pub flows_finished: u64,
    /// Injected fault events (link down/up, degrade, storm start/end).
    pub faults: u64,
    /// Post-failure path re-pin attempts.
    pub reroutes: u64,
    /// RTO forensic attributions ([`TraceEvent::RtoForensic`]) — one per
    /// timeout when the producer ran the forensics pass.
    pub rto_forensics: u64,
}

impl TraceCounts {
    /// Sum of drops from all switch-local reasons (excludes wire losses).
    pub fn switch_drops(&self) -> u64 {
        self.drops_color + self.drops_dt + self.drops_overflow
    }

    fn count_drop(&mut self, why: DropWhy, green: bool) {
        match why {
            DropWhy::Color => self.drops_color += 1,
            DropWhy::Dynamic => self.drops_dt += 1,
            DropWhy::Overflow => self.drops_overflow += 1,
            DropWhy::Wire => self.drops_wire += 1,
            DropWhy::LinkDown => self.drops_down += 1,
        }
        self.drops_green += u64::from(green);
    }
}

/// Per-node aggregate: the same counters, scoped to one switch.
pub type NodeCounts = TraceCounts;

/// Node ids below this are counted in the dense table however few nodes
/// the trace has named: every fabric's first switches.
const DENSE_FLOOR: usize = 64;

/// An aggregating sink: counts events without storing them.
///
/// This is the zero-allocation-per-event option; memory is proportional to
/// the distinct nodes the trace names, not to the trace length or to how
/// large a node id is.
#[derive(Default)]
pub struct CountingSink {
    /// Counters over the whole trace.
    pub totals: TraceCounts,
    /// RTO root-cause counts accumulated from `RtoForensic` events.
    pub rto_causes: RtoCauseCounts,
    /// Total events seen, including variants not individually counted.
    pub events: u64,
    /// Per-node counters for the ids `0..dense.len()`.
    dense: Vec<NodeCounts>,
    /// Per-node counters for the ids from `dense.len()` on.
    sparse: BTreeMap<u32, NodeCounts>,
    /// A lower bound on the distinct nodes named so far, which bounds the
    /// dense table at `DENSE_FLOOR + 2 * named` entries: ids first named at
    /// or past the table's end are counted as they come, ids filling a gap
    /// in the table only when it is recounted.
    named: usize,
    /// The value of `events` from which the dense table may be recounted
    /// (one recount per table length of events, so recounting costs O(1)
    /// per event).
    recount_at: u64,
}

impl CountingSink {
    /// Counts one event in the totals and, scoped, in `node`'s counters.
    #[inline]
    fn both(&mut self, node: u32, bump: impl Fn(&mut TraceCounts)) {
        bump(&mut self.totals);
        match self.dense.get_mut(node as usize) {
            Some(scoped) => bump(scoped),
            None => bump(self.past_dense(node)),
        }
    }

    /// The counters of a node the dense table does not reach. The table
    /// grows to take it in when the distinct nodes named justify the length
    /// (moving in the map's entries it then covers), so a simulator trace,
    /// whose node ids are dense, ends up all in the table, while a far id
    /// that the trace's few nodes do not justify stays in the ordered map.
    #[cold]
    fn past_dense(&mut self, node: u32) -> &mut NodeCounts {
        let i = node as usize;
        let new = !self.sparse.contains_key(&node);
        self.named += usize::from(new);
        if i >= DENSE_FLOOR + 2 * self.named && self.events >= self.recount_at {
            let untouched = NodeCounts::default();
            let filled = self.dense.iter().filter(|c| **c != untouched).count();
            self.named = filled + self.sparse.len() + usize::from(new);
            self.recount_at = self.events + self.dense.len() as u64;
        }
        let limit = DENSE_FLOOR + 2 * self.named;
        if i >= limit {
            return self.sparse.entry(node).or_default();
        }
        // Every id of the map below the limit moves into the table.
        let below = u32::try_from(limit).unwrap_or(u32::MAX);
        let last = self.sparse.range(..below).next_back().map(|(n, _)| *n);
        let len = last.map_or(i, |n| i.max(n as usize)) + 1;
        let rest = match u32::try_from(len) {
            Ok(len) => self.sparse.split_off(&len),
            Err(_) => BTreeMap::new(),
        };
        self.dense.resize(len, NodeCounts::default());
        for (n, c) in std::mem::replace(&mut self.sparse, rest) {
            self.dense[n as usize] = c;
        }
        &mut self.dense[i]
    }

    /// Every node some node-scoped event named, with its counters, in id
    /// order (each such event bumps a counter, so "named" is "nonzero").
    fn nodes(&self) -> impl Iterator<Item = (u32, &NodeCounts)> {
        let untouched = NodeCounts::default();
        (0u32..)
            .zip(&self.dense)
            .chain(self.sparse.iter().map(|(n, c)| (*n, c)))
            .filter(move |(_, c)| **c != untouched)
    }

    /// Counters keyed by switch node id: every node that an event carrying
    /// a node id named (queueing, drops, marks, PFC frames, faults).
    pub fn per_node(&self) -> BTreeMap<u32, NodeCounts> {
        self.nodes().map(|(n, c)| (n, *c)).collect()
    }

    /// Drop cross-tabulation: `(node, reason) -> count`, nonzero cells
    /// only. Every `Drop` event lands here, so summing a reason's column
    /// reproduces the per-reason total and summing a node's row reproduces
    /// that node's drop count.
    pub fn drop_matrix(&self) -> BTreeMap<(u32, DropWhy), u64> {
        let mut m = BTreeMap::new();
        for (node, c) in self.nodes() {
            let row = [
                (DropWhy::Color, c.drops_color),
                (DropWhy::Dynamic, c.drops_dt),
                (DropWhy::Overflow, c.drops_overflow),
                (DropWhy::Wire, c.drops_wire),
                (DropWhy::LinkDown, c.drops_down),
            ];
            m.extend(
                row.into_iter()
                    .filter(|(_, n)| *n > 0)
                    .map(|(why, n)| ((node, why), n)),
            );
        }
        m
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, _t: SimTime, ev: &TraceEvent) {
        self.events += 1;
        match ev {
            TraceEvent::Enqueue { node, .. } => self.both(*node, |c| c.enqueues += 1),
            TraceEvent::Dequeue { node, .. } => self.both(*node, |c| c.dequeues += 1),
            TraceEvent::Drop {
                node, why, green, ..
            } => self.both(*node, |c| c.count_drop(*why, *green)),
            TraceEvent::CeMark { node, .. } => self.both(*node, |c| c.ce_marked += 1),
            TraceEvent::PfcXoff { node, .. } => self.both(*node, |c| c.pauses += 1),
            TraceEvent::PfcXon { node, .. } => self.both(*node, |c| c.resumes += 1),
            TraceEvent::Fault { node, .. } => self.both(*node, |c| c.faults += 1),
            TraceEvent::Timeout { .. } => self.totals.timeouts += 1,
            TraceEvent::FastRetx { .. } => self.totals.fast_retx += 1,
            TraceEvent::FlowStart { .. } => self.totals.flows_started += 1,
            TraceEvent::FlowEnd { .. } => self.totals.flows_finished += 1,
            TraceEvent::Reroute { .. } => self.totals.reroutes += 1,
            TraceEvent::RtoForensic { cause, .. } => {
                self.totals.rto_forensics += 1;
                self.rto_causes.bump(*cause);
            }
            _ => {}
        }
    }
}

/// An in-memory JSONL sink whose buffer can be moved across threads: one
/// event per line, `{"t":<ns>,"ev":"<tag>", ...fields}`, encoded by
/// [`TraceEvent::write_jsonl`].
///
/// This is the building block for parallel experiment execution: each
/// worker thread records its run into a private `BufferSink`, and the
/// coordinator concatenates the extracted byte buffers in a deterministic
/// order afterwards, which yields a valid multi-run trace file. Unlike the
/// [`Tracer`](crate::Tracer) handle (which is `Rc`-based and thread-local
/// by design), `BufferSink` itself — and the `Vec<u8>` taken out of it — is
/// `Send`, so a run's trace can be produced on one thread and folded on
/// another.
#[derive(Default)]
pub struct BufferSink {
    /// The encoded lines; once grown, recording allocates nothing.
    out: String,
    /// Lines (= events) recorded since the last [`BufferSink::take_bytes`].
    lines: u64,
}

// Compile-time guarantee that worker threads can hand buffers back.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<BufferSink>();
};

impl BufferSink {
    /// An empty buffer sink.
    pub fn new() -> BufferSink {
        BufferSink::default()
    }

    /// Lines (= events) recorded so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Takes the encoded bytes out, leaving the sink empty and reusable.
    pub fn take_bytes(&mut self) -> Vec<u8> {
        self.lines = 0;
        std::mem::take(&mut self.out).into_bytes()
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        ev.write_jsonl(t, &mut self.out);
        self.out.push('\n');
        self.lines += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_ev(node: u32, why: DropWhy, green: bool) -> TraceEvent {
        TraceEvent::Drop {
            node,
            port: 0,
            flow: 1,
            seq: 0,
            why,
            green,
        }
    }

    #[test]
    fn vec_keeps_every_event_in_order() {
        let events: Vec<_> = (0..5u32)
            .map(|i| {
                (
                    SimTime::from_ns(u64::from(i)),
                    TraceEvent::FlowEnd { flow: i },
                )
            })
            .collect();
        let mut all = Vec::new();
        for (t, ev) in &events {
            all.record(*t, ev);
        }
        assert_eq!(all, events);
    }

    #[test]
    fn counting_sink_buckets_by_reason_and_node() {
        let mut c = CountingSink::default();
        let t = SimTime::ZERO;
        c.record(t, &drop_ev(1, DropWhy::Color, false));
        c.record(t, &drop_ev(1, DropWhy::Dynamic, true));
        c.record(t, &drop_ev(2, DropWhy::Overflow, false));
        c.record(t, &drop_ev(2, DropWhy::Wire, false));
        c.record(t, &TraceEvent::PfcXoff { node: 2, port: 0 });
        c.record(t, &TraceEvent::Timeout { flow: 0, seq: 0 });
        assert_eq!(c.totals.drops_color, 1);
        assert_eq!(c.totals.drops_dt, 1);
        assert_eq!(c.totals.drops_overflow, 1);
        assert_eq!(c.totals.drops_wire, 1);
        assert_eq!(c.totals.drops_green, 1);
        assert_eq!(c.totals.switch_drops(), 3);
        assert_eq!(c.totals.pauses, 1);
        assert_eq!(c.totals.timeouts, 1);
        assert_eq!(c.events, 6);
        let per_node = c.per_node();
        assert_eq!(per_node.keys().copied().collect::<Vec<_>>(), [1, 2]);
        assert_eq!(per_node[&1].drops_color, 1);
        assert_eq!(per_node[&1].drops_dt, 1);
        assert_eq!(per_node[&2].drops_overflow, 1);
        assert_eq!(per_node[&2].pauses, 1);
        // Timeout has no node, so it only lands in totals.
        assert!(per_node.values().all(|n| n.timeouts == 0));
        // The drop matrix cross-tabulates every drop by (node, reason).
        let drop_matrix = c.drop_matrix();
        assert_eq!(drop_matrix[&(1, DropWhy::Color)], 1);
        assert_eq!(drop_matrix[&(1, DropWhy::Dynamic)], 1);
        assert_eq!(drop_matrix[&(2, DropWhy::Overflow)], 1);
        assert_eq!(drop_matrix[&(2, DropWhy::Wire)], 1);
        assert_eq!(drop_matrix.len(), 4, "nonzero cells only");
    }

    /// A node id far beyond any fabric (a hand-made or corrupt trace file)
    /// is counted like any other, without a table sized by the id.
    #[test]
    fn counting_sink_takes_any_node_id() {
        const DENSE_NODES: usize = 1 << 13;
        let mut c = CountingSink::default();
        let t = SimTime::ZERO;
        c.record(t, &drop_ev(u32::MAX, DropWhy::LinkDown, false));
        c.record(t, &drop_ev(DENSE_NODES as u32, DropWhy::Color, true));
        c.record(t, &TraceEvent::PfcXon { node: 3, port: 0 });
        assert_eq!(c.dense.len(), 4, "only node 3 is near enough");
        let per_node = c.per_node();
        assert_eq!(
            per_node.keys().copied().collect::<Vec<_>>(),
            [3, DENSE_NODES as u32, u32::MAX]
        );
        assert_eq!(per_node[&3].resumes, 1);
        assert_eq!(per_node[&u32::MAX].drops_down, 1);
        assert_eq!(c.drop_matrix()[&(DENSE_NODES as u32, DropWhy::Color)], 1);
        assert_eq!(c.totals.drops_green, 1);
    }

    /// The dense table grows only as far as the distinct nodes named
    /// justify: one far id beside a few near ones stays in the map, while
    /// ids that are all named (a fabric's switches, in any order) move into
    /// the table, taking their counts from the map along.
    #[test]
    fn counting_sink_sizes_its_table_by_the_nodes_named() {
        let t = SimTime::ZERO;
        let mut c = CountingSink::default();
        for node in [1, 2, 8_000] {
            c.record(t, &TraceEvent::PfcXon { node, port: 0 });
        }
        assert_eq!(c.dense.len(), 3, "8000 is not justified by 3 nodes");
        assert_eq!(c.sparse.keys().copied().collect::<Vec<_>>(), [8_000]);

        // 720 switches named from the top down, then again: the first ones
        // wait in the map until enough nodes are named, the table grows as
        // they are, and the second pass moves the rest in.
        let mut c = CountingSink::default();
        for why in [DropWhy::Dynamic, DropWhy::Color] {
            for node in (0..720).rev() {
                c.record(t, &drop_ev(node, why, false));
            }
            assert!(c.dense.len() <= DENSE_FLOOR + 2 * c.named);
        }
        assert!(
            c.sparse.is_empty(),
            "{} ids left in the map",
            c.sparse.len()
        );
        assert_eq!(c.dense.len(), 720);
        let per_node = c.per_node();
        assert_eq!(per_node.len(), 720);
        assert!(per_node
            .values()
            .all(|n| n.drops_dt == 1 && n.drops_color == 1));
    }

    #[test]
    fn counting_sink_accumulates_rto_causes() {
        use crate::event::RtoCause;
        let mut c = CountingSink::default();
        let t = SimTime::ZERO;
        for (flow, cause) in [
            (0, RtoCause::Color),
            (1, RtoCause::Color),
            (2, RtoCause::AckLoss),
        ] {
            c.record(
                t,
                &TraceEvent::RtoForensic {
                    flow,
                    seq: 0,
                    cause,
                    node: 0,
                    port: 0,
                    root_at: t,
                },
            );
        }
        assert_eq!(c.totals.rto_forensics, 3);
        assert_eq!(c.rto_causes.get(RtoCause::Color), 2);
        assert_eq!(c.rto_causes.get(RtoCause::AckLoss), 1);
        assert_eq!(c.rto_causes.total(), 3);
    }

    #[test]
    fn buffer_sink_writes_parseable_lines_and_crosses_threads() {
        let mut buf = BufferSink::new();
        buf.record(SimTime::from_ns(5), &drop_ev(3, DropWhy::Color, true));
        buf.record(
            SimTime::from_ns(9),
            &TraceEvent::PfcXon { node: 3, port: 2 },
        );
        assert_eq!(buf.lines(), 2);
        // Bytes taken out on another thread parse back line by line.
        let (bytes, buf) = std::thread::spawn(move || (buf.take_bytes(), buf))
            .join()
            .unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let parsed: Vec<_> = text
            .lines()
            .map(|l| TraceEvent::from_jsonl(l).expect("parseable"))
            .collect();
        assert_eq!(
            parsed,
            [
                (SimTime::from_ns(5), drop_ev(3, DropWhy::Color, true)),
                (SimTime::from_ns(9), TraceEvent::PfcXon { node: 3, port: 2 }),
            ]
        );
        // take_bytes leaves the sink empty and reusable.
        assert_eq!(buf.lines(), 0);
    }
}
