//! Trace sinks: where emitted events go.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};

use eventsim::SimTime;

use crate::event::{DropWhy, RtoCauseCounts, TraceEvent};

/// A consumer of trace events.
///
/// Implementations must be cheap per-event; they run inline on the
/// simulation's hot paths whenever tracing is enabled.
pub trait TraceSink {
    /// Records one event at simulation time `t`.
    fn record(&mut self, t: SimTime, ev: &TraceEvent);

    /// Flushes buffered output, if any.
    fn flush(&mut self) {}
}

/// A bounded ring of the most recent events, for post-mortem inspection in
/// tests and interactive debugging.
pub struct RingSink {
    cap: usize,
    buf: VecDeque<(SimTime, TraceEvent)>,
    /// Events evicted because the ring was full.
    pub evicted: u64,
}

impl RingSink {
    /// A ring holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> RingSink {
        RingSink {
            cap: cap.max(1),
            buf: VecDeque::with_capacity(cap.clamp(1, 4096)),
            evicted: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back((t, ev.clone()));
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

/// Node ids below this bound are counted in a dense table; the simulator's
/// own ids always are (a k=48 fat-tree has 30,528 nodes). Ids at or above
/// it can only come from a trace file the inspector was handed, and land in
/// an ordered map so a hostile id cannot size an allocation.
const DENSE_NODES: usize = 1 << 16;

/// An aggregating sink: counts events without storing them.
///
/// This is the zero-allocation-per-event option; memory is proportional to
/// the highest switch node id seen, not the trace length.
#[derive(Default)]
pub struct CountingSink {
    /// Counters over the whole trace.
    pub totals: TraceCounts,
    /// RTO root-cause counts accumulated from `RtoForensic` events.
    pub rto_causes: RtoCauseCounts,
    /// Total events seen, including variants not individually counted.
    pub events: u64,
    /// Per-node counters indexed by node id, grown to the highest id seen.
    dense: Vec<NodeCounts>,
    /// Per-node counters for ids the dense table does not cover.
    sparse: BTreeMap<u32, NodeCounts>,
}

impl CountingSink {
    /// Counts one event in the totals and, scoped, in `node`'s counters.
    #[inline]
    fn both(&mut self, node: u32, bump: impl Fn(&mut TraceCounts)) {
        bump(&mut self.totals);
        let i = node as usize;
        let scoped = if i < DENSE_NODES {
            if i >= self.dense.len() {
                self.dense.resize(i + 1, NodeCounts::default());
            }
            &mut self.dense[i]
        } else {
            self.sparse.entry(node).or_default()
        };
        bump(scoped);
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

/// A JSON-lines sink writing one event per line, hand-rolled (no serde).
///
/// Generic over any [`Write`] so tests can trace into a `Vec<u8>` and the
/// CLI can trace into a `BufWriter<File>`.
pub struct JsonlSink<W: Write> {
    out: W,
    /// The line being encoded; reused, so steady state allocates nothing.
    line: String,
    /// Lines written so far.
    pub lines: u64,
    /// First I/O error encountered, if any (subsequent writes are skipped).
    pub error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            line: String::new(),
            lines: 0,
            error: None,
        }
    }

    /// Consumes the sink and returns the writer (flushing it first).
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }

    /// Borrows the underlying writer.
    pub fn get_ref(&self) -> &W {
        &self.out
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        ev.write_jsonl(t, &mut self.line);
        self.line.push('\n');
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// An in-memory JSONL sink whose buffer can be moved across threads.
///
/// This is the building block for parallel experiment execution: each
/// worker thread records its run into a private `BufferSink`, and the
/// coordinator concatenates the extracted byte buffers in a deterministic
/// order afterwards. Unlike the [`Tracer`](crate::Tracer) handle (which is
/// `Rc`-based and thread-local by design), `BufferSink` itself — and the
/// `Vec<u8>` taken out of it — is `Send`, so a run's trace can be produced
/// on one thread and folded on another.
///
/// The encoded bytes are exactly what a [`JsonlSink`] writing to a file
/// would produce, so concatenating buffers from several runs yields a
/// valid multi-run trace file.
pub struct BufferSink {
    inner: JsonlSink<Vec<u8>>,
}

impl Default for BufferSink {
    fn default() -> BufferSink {
        BufferSink::new()
    }
}

// Compile-time guarantee that worker threads can hand buffers back.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<BufferSink>();
};

impl BufferSink {
    /// An empty buffer sink.
    pub fn new() -> BufferSink {
        BufferSink {
            inner: JsonlSink::new(Vec::new()),
        }
    }

    /// Lines (= events) recorded so far.
    pub fn lines(&self) -> u64 {
        self.inner.lines
    }

    /// Takes the encoded bytes out, leaving the sink empty and reusable.
    pub fn take_bytes(&mut self) -> Vec<u8> {
        self.inner.lines = 0;
        std::mem::take(&mut self.inner.out)
    }

    /// Consumes the sink and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.inner.into_inner()
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        self.inner.record(t, ev);
    }
}

/// Duplicates every event into several sinks (e.g. a JSONL file plus a
/// counting cross-check).
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl FanoutSink {
    /// An empty fanout; add sinks with [`FanoutSink::push`].
    pub fn new() -> FanoutSink {
        FanoutSink::default()
    }

    /// Adds a sink (builder style).
    pub fn push(mut self, sink: impl TraceSink + 'static) -> FanoutSink {
        self.sinks.push(Box::new(sink));
        self
    }
}

impl TraceSink for FanoutSink {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        for s in &mut self.sinks {
            s.record(t, ev);
        }
    }

    fn flush(&mut self) {
        for s in &mut self.sinks {
            s.flush();
        }
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
    fn ring_bounds_and_counts_evictions() {
        let mut ring = RingSink::new(3);
        for i in 0..5u32 {
            ring.record(
                SimTime::from_ns(u64::from(i)),
                &TraceEvent::FlowEnd { flow: i },
            );
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.evicted, 2);
        let flows: Vec<u32> = ring
            .events()
            .map(|(_, ev)| match ev {
                TraceEvent::FlowEnd { flow } => *flow,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(flows, vec![2, 3, 4], "oldest events evicted first");
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
        let mut c = CountingSink::default();
        let t = SimTime::ZERO;
        c.record(t, &drop_ev(u32::MAX, DropWhy::LinkDown, false));
        c.record(t, &drop_ev(DENSE_NODES as u32, DropWhy::Color, true));
        c.record(t, &TraceEvent::PfcXon { node: 3, port: 0 });
        assert!(c.dense.len() <= DENSE_NODES);
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
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(SimTime::from_ns(5), &drop_ev(3, DropWhy::Color, true));
        sink.record(
            SimTime::from_ns(9),
            &TraceEvent::PfcXon { node: 3, port: 2 },
        );
        assert_eq!(sink.lines, 2);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let parsed: Vec<_> = text
            .lines()
            .map(|l| TraceEvent::from_jsonl(l).expect("parseable"))
            .collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, SimTime::from_ns(5));
        assert_eq!(parsed[1].1, TraceEvent::PfcXon { node: 3, port: 2 });
    }

    #[test]
    fn buffer_sink_matches_jsonl_encoding_and_crosses_threads() {
        let ev = drop_ev(3, DropWhy::Color, true);
        let mut jsonl = JsonlSink::new(Vec::new());
        jsonl.record(SimTime::from_ns(5), &ev);

        let mut buf = BufferSink::new();
        buf.record(SimTime::from_ns(5), &ev);
        assert_eq!(buf.lines(), 1);
        // Bytes extracted on another thread are identical to the direct
        // JsonlSink encoding; take_bytes leaves the sink reusable.
        let bytes = std::thread::spawn(move || buf.take_bytes()).join().unwrap();
        assert_eq!(bytes, jsonl.into_inner());
    }

    #[test]
    fn fanout_duplicates_into_all_children() {
        let counts = std::rc::Rc::new(std::cell::RefCell::new(CountingSink::default()));
        struct Shared(std::rc::Rc<std::cell::RefCell<CountingSink>>);
        impl TraceSink for Shared {
            fn record(&mut self, t: SimTime, ev: &TraceEvent) {
                self.0.borrow_mut().record(t, ev);
            }
        }
        let mut fan = FanoutSink::new()
            .push(Shared(counts.clone()))
            .push(Shared(counts.clone()));
        fan.record(SimTime::ZERO, &drop_ev(0, DropWhy::Dynamic, false));
        fan.flush();
        assert_eq!(counts.borrow().totals.drops_dt, 2);
    }
}
