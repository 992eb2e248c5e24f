//! The event loop, and the engine's types.
//!
//! One `Engine`, its `impl` split over child modules along the seams the
//! code already had (DESIGN §16 "Engine modules"): construction
//! (`setup.rs`), the wire path (`wire.rs`), timers and transport actions
//! (`timers.rs`), fault application and reroute (`fault.rs`), RTO forensics
//! (`forensics.rs`), results (`results.rs`), the per-flow route table
//! (`route.rs`) and each flow's transport lifetime (`lifetime.rs`). This
//! file keeps the types they share and the run loop.
//!
//! The observers a caller attaches before `run` — the profiler, the latency
//! ledger, the metrics registry, the tracer — are `Option`s or off-switches
//! checked at each hook, so there is one engine and one build; the
//! conservation ledger follows `debug_assertions`. No file in this
//! directory names a cargo feature (DESIGN §16 "Observer seam").

use eventsim::{EventQueue, SimTime};
use faults::{FaultAction, FaultState};
use netsim::packet::{
    Color, Direction, FlowId, FrameQueue, JourneyStamps, Packet, PacketRef, PacketSlab,
};
use netsim::switch::{DropReason, PfcConfig, PfcSignal, Switch, SwitchConfig};
use netsim::topology::{Hop, LinkId, NodeId, NodeKind, PinnedPath, PortId, Topology};
use netsim::LinkSpec;
use netstats::{FlowRecord, Samples};
use telemetry::{DropWhy, FaultKind, Registry, RtoCause, RtoCauseCounts, TraceEvent, Tracer};
use tlt_core::{RateTltConfig, WindowTltConfig};
use transport::cc::{Dctcp, Hpcc, NewReno};
use transport::iface::{Action, Ctx, FlowReceiver, FlowSender, SenderStats, TimerKind, TltMode};
use transport::roce::{RoceCfg, RoceReceiver, RoceRecovery, RoceSender};
use transport::tcp::{TcpReceiver, WindowCfg, WindowSender};
use transport::TransportKind;

use crate::config::{ConfigError, FlowSpec, SimConfig};
use crate::latency::FlowLedger;
use crate::ledger::ConservationLedger;
use crate::metrics::PortMetrics;
use crate::profile::{EngineProf, EvKind, Landed};

mod fault;
mod forensics;
mod lifetime;
mod results;
mod route;
mod setup;
mod timers;
mod wire;

pub use self::forensics::RtoForensicRec;
pub use self::results::{AggregateStats, SimResult};

use self::forensics::{LossEvent, LossSummary, PauseEpisode, PAUSE_LOG};
use self::route::FlowRoute;
use self::wire::{PauseAcct, Port};

enum Event {
    FlowStart(u32),
    TxDone {
        node: NodeId,
        port: PortId,
    },
    Deliver {
        to: NodeId,
        in_port: PortId,
        /// Handle into [`Engine::pkts`]: keeping the packet out-of-line
        /// keeps `Event` small, so every queue entry move is cheap.
        pkt: PacketRef,
    },
    Timer {
        flow: u32,
        kind: TimerKind,
        gen: u64,
    },
    PfcSet {
        node: NodeId,
        port: PortId,
        pause: bool,
    },
    QueueSample,
    TraceSample,
    /// Apply entry `i` of the fault schedule.
    Fault(u32),
    /// A pause storm against `node`'s ingress `port` ends.
    StormEnd {
        node: NodeId,
        port: PortId,
    },
    /// Re-pin flows whose paths cross downed links.
    Reroute,
}

impl Event {
    /// The profiler's kind bucket for this event.
    fn kind(&self) -> EvKind {
        match self {
            Event::FlowStart(_) => EvKind::FlowStart,
            Event::TxDone { .. } => EvKind::TxDone,
            Event::Deliver { .. } => EvKind::Deliver,
            Event::Timer { .. } => EvKind::Timer,
            Event::PfcSet { .. } => EvKind::PfcSet,
            Event::QueueSample => EvKind::QueueSample,
            Event::TraceSample => EvKind::TraceSample,
            Event::Fault(_) => EvKind::Fault,
            Event::StormEnd { .. } => EvKind::StormEnd,
            Event::Reroute => EvKind::Reroute,
        }
    }
}

/// What a flow keeps from `try_new` to the end of the run beside its spec
/// in [`Engine::specs`] (DESIGN §12 "Flow lifecycle" lists every field's
/// lifetime).
struct FlowRuntime {
    /// The spec's endpoints as topology nodes.
    src: NodeId,
    dst: NodeId,
    /// Which ECMP pin the flow's paths are: 0 is the one `try_new` chose,
    /// `n` the salt bump `reroute_flows` re-pinned it with. The paths
    /// themselves are derived where they are read ([`Engine::path`]).
    repins: u8,
    /// Built at `FlowStart` and kept to the end of the run: late duplicate
    /// data still gets its ACK.
    rx: Option<Box<dyn FlowReceiver>>,
    complete_at: Option<SimTime>,
    /// Transmit epoch stamped onto outgoing packets; advances when an RTO
    /// is attributed, so loss records separate retransmission rounds. The
    /// receiver's ACKs still carry it once the flow is done.
    tx_epoch: u32,
    /// Built at `FlowStart`, dropped once the flow is done and its sender
    /// folded into `Engine::counters` (`lifetime.rs`).
    run: Option<Box<Running>>,
}

// The record every flow pays for from `try_new` to the end of the run,
// observed or not, keeps only what outlives the flow and is not the
// caller's spec: its paths are derived, its spec is read from `specs`, its
// latency ledger, when attached, sits in a side table. The sender, timer
// slots and loss summary are the `Running` box, which exists only between
// a flow's `FlowStart` and its fold.
const _: () = assert!(std::mem::size_of::<FlowRuntime>() == 56);
const _: () = assert!(std::mem::size_of::<Running>() == 280);

/// What only a running flow reads: its sender, its timer slots and its loss
/// summary, in one box that lives from the flow's `FlowStart` to its fold.
struct Running {
    tx: Box<dyn FlowSender>,
    timer_gen: [u64; TimerKind::ALL.len()],
    timer_armed: [bool; TimerKind::ALL.len()],
    /// When the currently-armed RTO timer was set (the PFC-stall window).
    rto_armed_at: SimTime,
    /// What RTO attribution reads of this flow's losses; `None` until the
    /// first one (DESIGN §10).
    losses: Option<Box<LossSummary>>,
    /// Lazy timer state, per slot. Arming a timer no longer pushes a queue
    /// entry when an earlier-or-equal entry for the slot is already
    /// pending: the deadline is parked here and the pending pop re-arms it
    /// (at a pre-reserved tie-break seq, so pop order is exactly what an
    /// eager push would have produced). Superseded deadlines that are
    /// themselves re-superseded before their queue entry fires simply
    /// never materialize — that was the 4M-stale-pop churn.
    ///
    /// `timer_queued_at[s]` is the timestamp of the slot's in-queue entry
    /// (`None` when nothing is queued); `timer_queued_gen[s]` identifies
    /// that entry; `timer_deadline[s]`/`timer_res_seq[s]` describe the
    /// latest armed deadline and its reserved sequence number.
    timer_deadline: [SimTime; TimerKind::ALL.len()],
    timer_queued_at: [Option<SimTime>; TimerKind::ALL.len()],
    timer_queued_gen: [u64; TimerKind::ALL.len()],
    timer_res_seq: [u64; TimerKind::ALL.len()],
}

/// The ECMP salt of flow `f`'s pin number `repins` (0: its first).
fn pin_salt(f: u32, seed: u64, repins: u8) -> u64 {
    (u64::from(f) ^ seed).wrapping_add(u64::from(repins) << 32)
}

/// Flow-completion callbacks as one table: the flows whose
/// `FlowSpec::after == Some(p)` are `flows[start[p]..start[p + 1]]`, in
/// ascending order, and their FlowStarts are scheduled in that order when
/// `p` completes (fan-out/fan-in request chains).
struct Dependents {
    start: Vec<u32>,
    flows: Vec<u32>,
}

impl Dependents {
    /// The table for `after`, each flow's trigger (already checked to
    /// precede the flow).
    fn new(after: impl Iterator<Item = Option<u32>> + Clone) -> Dependents {
        let n = after.clone().count();
        let mut start = vec![0u32; n + 1];
        for p in after.clone().flatten() {
            start[p as usize + 1] += 1;
        }
        for p in 0..n {
            start[p + 1] += start[p];
        }
        let mut next = start.clone();
        let mut flows = vec![0; start[n] as usize];
        for (i, p) in after.enumerate() {
            if let Some(p) = p {
                flows[next[p as usize] as usize] = i as u32;
                next[p as usize] += 1;
            }
        }
        Dependents { start, flows }
    }

    /// Where flow `p`'s dependents sit in `flows`.
    fn range(&self, p: u32) -> std::ops::Range<usize> {
        self.start[p as usize] as usize..self.start[p as usize + 1] as usize
    }
}

/// The simulation engine. See the crate docs for an end-to-end example.
pub struct Engine {
    cfg: SimConfig,
    topo: Topology,
    /// One switch per switch id: every shape numbers its switches
    /// `0..switch_count` before its hosts, so `switches.get(n)` is `None`
    /// exactly for a host.
    switches: Vec<Switch>,
    /// The port table: `(node, port)` lives at `port_base[node] + port`;
    /// `port_base` has one entry past the last node so a node's ports are
    /// `port_base[n]..port_base[n + 1]`.
    ports: Vec<Port>,
    /// Pause accounting on the same index. Empty until the first PFC pause
    /// of the run, so a fabric that never pauses never pays for it.
    pause_acct: Vec<PauseAcct>,
    port_base: Vec<u32>,
    /// Each host's NIC queue, on the host index (`node - switches.len()`),
    /// threaded through `pkts` like the switch queues.
    host_q: Vec<FrameQueue>,
    /// The flows as the caller handed them in, on the flow index: read at
    /// `FlowStart`, when a dependent is released (which rewrites its
    /// `start` to the absolute release time) and at collect.
    specs: Vec<FlowSpec>,
    flows: Vec<FlowRuntime>,
    /// Each flow's sender counters while it has no sender, on the flow
    /// index: the defaults before its `FlowStart`, the folded sender's once
    /// it is done. Written once per flow and read at collect, so they stay
    /// off the hot per-flow record.
    counters: Vec<SenderStats>,
    /// The route table, on the flow index: what a transit hop reads in
    /// place of `flows[f]` and its path.
    routes: Vec<FlowRoute>,
    /// Flow-completion callbacks, on the flow index.
    dependents: Dependents,
    queue: EventQueue<Event>,
    /// Arena for in-flight packets (see [`Event::Deliver`]).
    pkts: PacketSlab,
    now: SimTime,
    actions: Vec<Action>,
    base_rtt: SimTime,
    bdp: u64,
    faults: FaultState,
    faults_injected: u64,
    first_fault_at: Option<SimTime>,
    reroutes: u64,
    tracer: Tracer,
    /// Completed PFC pause episodes (bounded ring, oldest first).
    pause_log: std::collections::VecDeque<PauseEpisode>,
    /// Per-cause RTO attribution totals.
    rto_causes: RtoCauseCounts,
    /// Per-RTO forensic records, in firing order.
    forensics: Vec<RtoForensicRec>,
    /// Per-port metric accumulators, published into the run's registry at
    /// collect; `None` unless [`Engine::set_metrics`] was called.
    metrics: Option<PortMetrics>,
    /// Conservation ledger: engine-side per-link and per-drop-reason
    /// accounting, audited against [`AggregateStats`] at drain time (inert
    /// without `debug_assertions`).
    ledger: ConservationLedger,
    /// Event-level profiler: per-kind schedule/execute tallies, fan-out and
    /// queue-depth histograms, and sim-time series; `None` unless
    /// [`Engine::set_profile`] was called. Every hook goes through
    /// [`prof!`].
    prof: Option<Box<EngineProf>>,
    /// The latency ledger, on the flow index: each flow's phase
    /// decomposition, fed by the journey stamps of its packets (kept in
    /// `pkts`' side table); `None` unless [`Engine::set_ledger`] was
    /// called.
    latency: Option<Vec<FlowLedger>>,
    /// Every pair was built in `try_new` and none is folded: the reference
    /// side of `transport_lifetime_matches_eager`.
    #[cfg(test)]
    eager: bool,
    /// The per-flow loss rings the summaries replaced, when kept: the
    /// reference side of `loss_summary_matches_the_ring`.
    #[cfg(test)]
    loss_rings: forensics::LossRings,
}

/// Calls profiler hook `$hook`, or bumps counter `$count`, when a profiler
/// is attached. The arguments are evaluated only then, so an unprofiled run
/// pays one predictable branch per site.
macro_rules! prof {
    ($eng:expr, $hook:ident($($arg:expr),*)) => {
        if let Some(p) = $eng.prof.as_deref_mut() {
            p.$hook($($arg),*);
        }
    };
    ($eng:expr, $count:ident += 1) => {
        if let Some(p) = $eng.prof.as_deref_mut() {
            p.$count += 1;
        }
    };
}
use prof;

impl Engine {
    /// Index of `(node, port)` in the port table.
    #[inline]
    fn port_index(&self, node: NodeId, port: PortId) -> usize {
        let n = node.0 as usize;
        let i = self.port_base[n] as usize + port.0 as usize;
        debug_assert!(
            i < self.port_base[n + 1] as usize,
            "node {n} has no port {}",
            port.0
        );
        i
    }

    /// Flow `f`'s pinned path for packets travelling `dir`, derived from
    /// its endpoints, its index, the seed and its re-pin count: the pin
    /// `try_new` chose, or the one `reroute_flows` last chose. Allocates
    /// nothing; read where there is no route record to answer instead.
    fn path(&self, f: u32, dir: Direction) -> PinnedPath {
        let rt = &self.flows[f as usize];
        let salt = pin_salt(f, self.cfg.seed, rt.repins);
        let hash = Topology::ecmp_hash(rt.src, rt.dst, salt);
        match dir {
            Direction::Fwd => self.topo.pinned_path(rt.src, rt.dst, hash),
            Direction::Rev => self.topo.pinned_path(rt.dst, rt.src, hash),
        }
    }

    /// Flow `f`'s forward and reverse paths ([`Engine::path`]).
    fn paths(&self, f: u32) -> (PinnedPath, PinnedPath) {
        (self.path(f, Direction::Fwd), self.path(f, Direction::Rev))
    }

    /// Sum of all switch egress queue bytes (the profiler's occupancy
    /// series sample).
    fn total_queue_bytes(&self) -> u64 {
        self.switches
            .iter()
            .map(|sw| {
                (0..sw.config().ports)
                    .map(|p| sw.queue_bytes(PortId(p as u32)))
                    .sum::<u64>()
            })
            .sum()
    }

    /// The base RTT the engine derived for this topology.
    pub fn base_rtt(&self) -> SimTime {
        self.base_rtt
    }

    /// The bandwidth-delay product in bytes.
    pub fn bdp(&self) -> u64 {
        self.bdp
    }

    /// Runs the simulation to completion (all flows done, events exhausted,
    /// or the configured horizon reached) and returns the results.
    pub fn run(mut self) -> SimResult {
        let queue_samples = self.run_events();
        self.collect(queue_samples)
    }

    /// The event loop of [`Engine::run`], up to the end-of-run clock:
    /// returns the queue samples it took.
    fn run_events(&mut self) -> Samples {
        let mut queue_samples = Samples::new();
        let mut remaining: usize = self.flows.len();
        let mut done_flag = vec![false; self.flows.len()];

        // Incremental completion tracking: only the flow an event touched
        // can change doneness, so the check is O(1) per event.
        macro_rules! check_done {
            ($f:expr) => {{
                let i = $f as usize;
                if !done_flag[i] && self.flows[i].is_done() {
                    done_flag[i] = true;
                    remaining -= 1;
                    // A finished flow must not leave timers armed: a stale
                    // RTO would keep the event loop spinning and show up as
                    // a leak in the end-of-run audit. With none armed, the
                    // sender is folded into its counters.
                    self.disarm_timers($f);
                    self.fold_sender($f);
                }
            }};
        }

        // Attached before the run, if at all: one test of a register per
        // event when not.
        let profiling = self.prof.is_some();
        while let Some((t, ev)) = self.queue.pop() {
            if t > self.cfg.max_time {
                // Popped past the horizon without executing: cancelled,
                // like everything still in the queue (drained in collect).
                prof!(self, on_unpopped(ev.kind()));
                break;
            }
            self.now = t;
            // The profiler's kind, and its fan-out proxy: how many events
            // this handler schedules (counting seq reservations, so deferred
            // timer arms still register as the handler's work).
            let probe = profiling.then(|| {
                if self.prof.as_ref().is_some_and(|p| p.window_due(t)) {
                    // Frames on the wire: `Deliver`s still queued, and this
                    // one.
                    let deliver = |e: &Event| matches!(e, Event::Deliver { .. });
                    let on_wire = self.queue.pending().filter(|e| deliver(e)).count();
                    let inflight = (on_wire + usize::from(deliver(&ev))) as u64;
                    let qbytes = self.total_queue_bytes();
                    prof!(self, on_window(t, inflight, qbytes));
                }
                (ev.kind(), self.queue.seq_total())
            });
            // What the profiler splits two kinds by: where a `Deliver` left
            // its frame, and whether a `Timer` was stale.
            let (mut landed, mut stale) = (None, false);
            match ev {
                Event::FlowStart(f) => {
                    let bytes = self.specs[f as usize].bytes;
                    self.tracer
                        .emit(t, || TraceEvent::FlowStart { flow: f, bytes });
                    // The ledger opens at FlowStart *execution*, which is
                    // also the recorded `spec.start` (dependent flows have
                    // it rewritten to the absolute release time), so the
                    // frontier and the FCT base coincide exactly.
                    if let Some(lg) = self.latency.as_mut() {
                        lg[f as usize].begin(t.as_ns());
                    }
                    self.start_transport(f);
                    self.flush_actions(f);
                    check_done!(f);
                }
                Event::Deliver { to, in_port, pkt } => {
                    let f = self.pkts.get(pkt).flow.0;
                    let at = self.deliver(to, in_port, pkt);
                    if at == Landed::Endpoint {
                        check_done!(f);
                    }
                    landed = Some(at);
                }
                Event::TxDone { node, port } => self.tx_done(node, port),
                Event::Timer { flow, kind, gen } => {
                    stale = !self.fire_timer(flow, kind, gen);
                    if !stale {
                        check_done!(flow);
                    }
                }
                Event::PfcSet { node, port, pause } => self.pfc_set(node, port, pause),
                Event::QueueSample => self.queue_sample(&mut queue_samples, remaining > 0),
                Event::TraceSample => self.trace_sample(remaining > 0),
                Event::Fault(i) => self.apply_fault(i as usize),
                Event::StormEnd { node, port } => self.storm_end(node, port),
                Event::Reroute => self.reroute_flows(),
            }
            if let Some((kind, before)) = probe {
                let fanout = self.queue.seq_total() - before;
                prof!(self, on_pop(kind, t, fanout, self.queue.len() as u64));
                if stale {
                    prof!(self, note_stale_timer());
                }
                if let Some(at) = landed {
                    prof!(self, on_landed(at));
                }
            }
            if remaining == 0 {
                break;
            }
        }

        // End-of-run clock (DESIGN §12 "Lazy TxDone"). When the loop ran
        // dry or hit the horizon — not when the last flow finished — the
        // eager engine would still have executed every idle `TxDone` up to
        // `max_time`, and one of them could be the last event of the run
        // (a frame serialized onto a dead wire has a `TxDone` but no
        // `Deliver`). `duration`, the pause close-out and
        // `link_pause_fraction` all read `now`, so advance it to the latest
        // of those virtual events.
        if remaining > 0 {
            let horizon = self.cfg.max_time;
            let last_free = self
                .ports
                .iter()
                .filter(|ps| ps.busy && !ps.tx_done_queued && ps.free_at <= horizon)
                .map(|ps| ps.free_at)
                .max();
            self.now = self.now.max(last_free.unwrap_or(SimTime::ZERO));
        }
        queue_samples
    }

    /// The `QueueSample` arm: records the deepest egress queue and, while
    /// flows remain (`more`), schedules the next sample.
    fn queue_sample(&mut self, queue_samples: &mut Samples, more: bool) {
        let t = self.now;
        let max_q = self
            .switches
            .iter()
            .flat_map(|sw| (0..sw.config().ports).map(move |p| sw.queue_bytes(PortId(p as u32))))
            .max()
            .unwrap_or(0);
        queue_samples.push(max_q as f64);
        if let Some(every) = self.cfg.queue_sample_every {
            if more {
                self.queue.schedule(t + every, Event::QueueSample);
            }
        }
    }

    /// The `TraceSample` arm: one `PortSample` per switch port and, while
    /// flows remain (`more`), the next sample.
    fn trace_sample(&mut self, more: bool) {
        let t = self.now;
        for (n, sw) in self.switches.iter().enumerate() {
            for p in 0..sw.config().ports {
                let qlen = sw.queue_bytes(PortId(p as u32));
                let paused = self.ports[self.port_base[n] as usize + p].paused;
                self.tracer.emit(t, || TraceEvent::PortSample {
                    node: n as u32,
                    port: p as u32,
                    qlen,
                    paused,
                });
            }
        }
        if let Some(every) = self.cfg.trace_sample_every {
            if more {
                self.queue.schedule(t + every, Event::TraceSample);
            }
        }
    }
}

#[cfg(test)]
mod drawn;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::small_single_switch;

    fn one_flow(cfg: SimConfig, bytes: u64) -> SimResult {
        Engine::new(cfg, vec![FlowSpec::new(0, 1, bytes, SimTime::ZERO, false)]).run()
    }

    #[test]
    fn single_dctcp_flow_completes_at_line_rate() {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(2));
        let res = one_flow(cfg, 1_000_000);
        let fct = res.flows[0].fct().expect("completed");
        // 1 MB at 40 Gbps is 200us of serialization + a few RTTs of
        // slow start; anything under 2ms is sane, under 100us impossible.
        assert!(fct > SimTime::from_us(100), "fct {fct}");
        assert!(fct < SimTime::from_ms(3), "fct {fct}");
        assert_eq!(res.agg.timeouts, 0);
        assert_eq!(res.agg.drops_dt, 0);
        assert!(res.agg.events_scheduled > 0, "work accounting populated");
    }

    /// Flow-completion callbacks: a dependent flow starts exactly at its
    /// parent's completion plus the think-time delay, and its record
    /// carries the rewritten absolute start.
    #[test]
    fn dependent_flow_starts_after_parent_completes() {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
        let think = SimTime::from_us(10);
        let flows = vec![
            FlowSpec::new(0, 1, 50_000, SimTime::ZERO, true),
            FlowSpec::new(1, 0, 100_000, think, true).after(0),
        ];
        let res = Engine::new(cfg, flows).run();
        let parent_end = res.flows[0].end.expect("parent completed");
        assert_eq!(res.flows[1].start, parent_end + think);
        let child_end = res.flows[1].end.expect("child completed");
        assert!(child_end > parent_end + think);
    }

    /// Fan-out: several dependents of one parent all fire at the same
    /// completion instant; an unrelated absolute-start flow is unaffected.
    #[test]
    fn completion_fanout_releases_every_dependent() {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(4));
        let flows = vec![
            FlowSpec::new(0, 1, 20_000, SimTime::ZERO, true),
            FlowSpec::new(1, 2, 8_000, SimTime::ZERO, true).after(0),
            FlowSpec::new(1, 3, 8_000, SimTime::from_us(5), true).after(0),
            FlowSpec::new(2, 3, 8_000, SimTime::from_us(1), false),
        ];
        let res = Engine::new(cfg, flows).run();
        let parent_end = res.flows[0].end.expect("parent completed");
        assert_eq!(res.flows[1].start, parent_end);
        assert_eq!(res.flows[2].start, parent_end + SimTime::from_us(5));
        for f in &res.flows {
            assert!(f.end.is_some(), "flow {} incomplete", f.id);
        }
        assert_eq!(
            res.flows[3].start,
            SimTime::from_us(1),
            "absolute start kept"
        );
    }

    /// Engine × fat-tree integration: a cross-pod flow traverses six hops
    /// and completes; base RTT derives from the 6-hop diameter.
    #[test]
    fn fat_tree_cross_pod_flow_completes() {
        let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(
            netsim::topology::TopologySpec::paper_fat_tree(4, SimTime::from_us(10)),
        );
        cfg.seed = 3;
        let res = Engine::new(
            cfg,
            vec![FlowSpec::new(0, 15, 200_000, SimTime::ZERO, true)],
        )
        .run();
        assert!(res.flows[0].end.is_some(), "cross-pod flow completed");
        assert_eq!(res.agg.timeouts, 0);
    }

    #[test]
    fn every_transport_completes_a_flow() {
        for kind in [
            TransportKind::Tcp,
            TransportKind::Dctcp,
            TransportKind::DcqcnGbn,
            TransportKind::DcqcnSack,
            TransportKind::DcqcnIrn,
            TransportKind::Hpcc,
        ] {
            let base = if kind.is_roce() {
                SimConfig::roce_family(kind)
            } else {
                SimConfig::tcp_family(kind)
            };
            let cfg = base.with_topology(small_single_switch(3));
            let res = one_flow(cfg, 200_000);
            assert!(res.flows[0].end.is_some(), "{kind:?} flow did not complete");
            assert_eq!(res.agg.timeouts, 0, "{kind:?} timed out");
        }
    }

    #[test]
    fn every_transport_completes_with_tlt() {
        for kind in [
            TransportKind::Tcp,
            TransportKind::Dctcp,
            TransportKind::DcqcnGbn,
            TransportKind::DcqcnSack,
            TransportKind::DcqcnIrn,
            TransportKind::Hpcc,
        ] {
            let base = if kind.is_roce() {
                SimConfig::roce_family(kind)
            } else {
                SimConfig::tcp_family(kind)
            };
            let cfg = base.with_topology(small_single_switch(3)).with_tlt();
            let res = one_flow(cfg, 200_000);
            assert!(res.flows[0].end.is_some(), "{kind:?}+TLT did not complete");
            assert!(res.agg.important_pkts > 0, "{kind:?} marked nothing");
        }
    }

    #[test]
    fn incast_without_tlt_times_out_with_tlt_does_not() {
        // The paper's timeout regime: many *short* (8 kB) flows arriving
        // synchronized, so each flow's entire life fits in the initial
        // burst — drops land on flow tails and only an RTO (or TLT) can
        // recover them. 96 flows x 8 kB = 768 kB against a ~400 kB dynamic
        // threshold.
        let mk = |tlt: bool| {
            let mut cfg =
                SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(49));
            cfg.switch.buffer_bytes = 800_000;
            cfg.switch.ecn = netsim::switch::EcnConfig::Threshold { k: 100_000 };
            if tlt {
                cfg = cfg.with_tlt();
                cfg.switch.color_threshold = Some(150_000);
            }
            let flows: Vec<FlowSpec> = (1..49)
                .flat_map(|s| {
                    [
                        FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true),
                        FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true),
                    ]
                })
                .collect();
            Engine::new(cfg, flows).run()
        };
        let base = mk(false);
        let tlt = mk(true);
        assert!(
            base.agg.timeouts > 0,
            "synchronized incast should overflow and time out"
        );
        assert_eq!(tlt.agg.timeouts, 0, "TLT eliminates the timeouts");
        assert!(
            tlt.agg.drops_color > 0,
            "TLT proactively dropped red packets"
        );
        assert_eq!(tlt.agg.drops_green_data, 0, "no important packet lost");
        // And the tail FCT collapses.
        let base_max = base.flows.iter().filter_map(|f| f.fct()).max().unwrap();
        let tlt_max = tlt.flows.iter().filter_map(|f| f.fct()).max().unwrap();
        assert!(
            tlt_max < base_max,
            "TLT tail {tlt_max} vs baseline tail {base_max}"
        );
    }

    #[test]
    fn pfc_makes_the_network_lossless() {
        // TCP (no ECN) keeps ramping until flow control engages: with PFC
        // the ingress accounting pauses the sending NICs instead of
        // dropping.
        let mut cfg = SimConfig::tcp_family(TransportKind::Tcp)
            .with_topology(small_single_switch(5))
            .with_pfc();
        cfg.switch.buffer_bytes = 1_000_000;
        let flows: Vec<FlowSpec> = (1..5)
            .map(|s| FlowSpec::new(s, 0, 1_000_000, SimTime::ZERO, true))
            .collect();
        let res = Engine::new(cfg, flows).run();
        assert_eq!(res.agg.drops_dt + res.agg.drops_overflow, 0, "lossless");
        assert_eq!(res.agg.timeouts, 0);
        assert!(res.agg.pause_frames > 0, "PFC actually engaged");
        assert!(res.agg.link_pause_fraction > 0.0);
        assert!(res.flows.iter().all(|f| f.end.is_some()));
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let mk = || {
            let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
                .with_topology(small_single_switch(9))
                .with_seed(7);
            let flows: Vec<FlowSpec> = (1..9)
                .map(|s| FlowSpec::new(s, 0, 32_000, SimTime::from_us(s as u64), true))
                .collect();
            Engine::new(cfg, flows).run()
        };
        let a = mk();
        let b = mk();
        for (x, y) in a.flows.iter().zip(b.flows.iter()) {
            assert_eq!(x.end, y.end);
            assert_eq!(x.timeouts, y.timeouts);
        }
        assert_eq!(a.agg.data_pkts_sent, b.agg.data_pkts_sent);
        assert_eq!(a.agg.drops_dt, b.agg.drops_dt);
    }

    #[test]
    fn leaf_spine_cross_rack_flow() {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp);
        let res = Engine::new(
            cfg,
            vec![FlowSpec::new(0, 95, 500_000, SimTime::ZERO, false)],
        )
        .run();
        let fct = res.flows[0].fct().expect("completed");
        // 4 hops of 10us each way: RTT 80us; 500kB needs several RTTs.
        assert!(fct >= SimTime::from_us(160), "fct {fct}");
    }

    #[test]
    fn max_time_truncates_incomplete_flows() {
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Tcp).with_topology(small_single_switch(2));
        cfg.max_time = SimTime::from_us(50); // not even one RTT
        let res = one_flow(cfg, 10_000_000);
        assert!(res.flows[0].end.is_none());
    }

    #[test]
    fn queue_sampling_records_buildup() {
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(9));
        cfg.queue_sample_every = Some(SimTime::from_us(10));
        let flows: Vec<FlowSpec> = (1..9)
            .map(|s| FlowSpec::new(s, 0, 64_000, SimTime::ZERO, true))
            .collect();
        let res = Engine::new(cfg, flows).run();
        assert!(res.agg.queue_samples.len() > 3);
        assert!(res.agg.max_queue_bytes > 0);
    }

    #[test]
    fn wire_loss_fallback_to_transport_recovery() {
        // §5: TLT does not handle non-congestion losses; when corruption
        // strikes, flows still complete via the underlying transport (fast
        // retransmit or RTO).
        let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
            .with_topology(small_single_switch(3))
            .with_tlt();
        cfg.wire_loss_rate = 0.01;
        let flows: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::new(1 + (i % 2), 0, 100_000, SimTime::from_us(i as u64), true))
            .collect();
        let res = Engine::new(cfg, flows).run();
        assert!(res.agg.wire_drops > 0, "corruption actually occurred");
        assert!(
            res.flows.iter().all(|f| f.end.is_some()),
            "every flow survives corruption"
        );
    }

    #[test]
    fn wire_loss_zero_by_default() {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(2));
        let res = one_flow(cfg, 200_000);
        assert_eq!(res.agg.wire_drops, 0);
    }
}
