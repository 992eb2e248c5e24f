//! The event loop.

use eventsim::{EventQueue, SimTime};
use faults::{FaultAction, FaultState};
use netsim::packet::{Color, Direction, FlowId, Packet, PacketRef, PacketSlab};
use netsim::switch::{DropReason, PfcConfig, PfcSignal, Switch, SwitchConfig};
use netsim::topology::{Hop, LinkId, NodeId, NodeKind, PortId, Topology};
use netsim::LinkSpec;
use netstats::{FlowRecord, Samples};
use telemetry::{
    DropWhy, FaultKind, Registry, RtoCause, RtoCauseCounts, TimerId, TraceEvent, Tracer,
};
use tlt_core::{RateTltConfig, WindowTltConfig};
use transport::cc::{Dctcp, Hpcc, NewReno};
use transport::iface::{Action, Ctx, FlowReceiver, FlowSender, TimerKind, TltMode};
use transport::roce::{RoceCfg, RoceReceiver, RoceRecovery, RoceSender};
use transport::tcp::{TcpReceiver, WindowCfg, WindowSender};
use transport::TransportKind;

use crate::config::{FlowSpec, SimConfig};
use crate::metrics::PortMetrics;

/// Aggregate counters of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct AggregateStats {
    /// Retransmission timeouts summed over all flows.
    pub timeouts: u64,
    /// Fast (and NACK/go-back-N) retransmissions summed over all flows.
    pub fast_retx: u64,
    /// Data packets sent by all flows.
    pub data_pkts_sent: u64,
    /// Data packets marked important.
    pub important_pkts: u64,
    /// Data packets left unimportant.
    pub unimportant_pkts: u64,
    /// Important ACK-clocking packets / bytes.
    pub clocking_pkts: u64,
    /// Payload bytes injected by important ACK-clocking (Figure 17b).
    pub clocking_bytes: u64,
    /// Red packets proactively dropped at the color threshold.
    pub drops_color: u64,
    /// Congestion (dynamic-threshold) drops.
    pub drops_dt: u64,
    /// Buffer-exhaustion drops.
    pub drops_overflow: u64,
    /// Important (green) data packets dropped (Table 1 numerator).
    pub drops_green_data: u64,
    /// Green data packets admitted (Table 1 denominator).
    pub green_data_pkts: u64,
    /// Packets CE-marked by switches.
    pub ce_marked: u64,
    /// PFC PAUSE frames emitted by switches (Figure 7b).
    pub pause_frames: u64,
    /// Mean fraction of time an egress link spent paused (Figure 7c),
    /// averaged over links that were paused at least once.
    pub link_pause_fraction: f64,
    /// Largest single egress queue observed anywhere (Figure 11b).
    pub max_queue_bytes: u64,
    /// Periodic samples of the deepest egress queue (Figure 11b median).
    pub queue_samples: Samples,
    /// RTT samples pooled across foreground flows (Figure 1).
    pub fg_rtt: Samples,
    /// RTT samples pooled across background flows (Figure 1).
    pub bg_rtt: Samples,
    /// Per-flow maximum estimated RTO, foreground (Figure 1).
    pub fg_rto: Samples,
    /// Per-flow maximum estimated RTO, background (Figure 1).
    pub bg_rto: Samples,
    /// Segment delivery times (Figure 16), when collection was enabled.
    pub delivery: Samples,
    /// Packets lost to injected wire corruption (non-congestion losses).
    pub wire_drops: u64,
    /// Frames destroyed on downed links: serialized onto a dead wire,
    /// caught in flight when the link failed, or orphaned by a reroute.
    pub down_drops: u64,
    /// Fault-schedule events applied.
    pub faults_injected: u64,
    /// Time the first fault fired ([`SimTime::ZERO`] when none did) — the
    /// origin for recovery-time measurements.
    pub first_fault_at: SimTime,
    /// Flows successfully re-pinned onto a fully-up ECMP path after a
    /// `LinkDown { reroute_after: Some(_) }`.
    pub reroutes: u64,
    /// Timers still armed on *completed* flows when the run ended. The
    /// engine disarms on completion, so nonzero means a bookkeeping leak.
    pub timers_leaked: u64,
    /// Wall time the simulation covered.
    pub duration: SimTime,
    /// Total simulator events scheduled (the engine's unit of work, for
    /// events/sec throughput reporting).
    pub events_scheduled: u64,
    /// Per-root-cause attribution of the timeouts above, from the RTO
    /// forensics pass (`rto_causes.total() == timeouts` when every firing
    /// was observed by the engine).
    pub rto_causes: RtoCauseCounts,
}

impl AggregateStats {
    /// Loss rate of important (green) data packets at switches (Table 1).
    pub fn important_loss_rate(&self) -> f64 {
        let denom = self.green_data_pkts + self.drops_green_data;
        if denom == 0 {
            0.0
        } else {
            self.drops_green_data as f64 / denom as f64
        }
    }

    /// Fraction of data packets marked important (Figures 10, 11a).
    pub fn important_fraction(&self) -> f64 {
        let total = self.important_pkts + self.unimportant_pkts;
        if total == 0 {
            0.0
        } else {
            self.important_pkts as f64 / total as f64
        }
    }
}

/// One retransmission timeout with its attributed root cause.
///
/// Built by the engine's forensics pass the instant an RTO fires: the
/// flow's recent loss history and the PFC pause timeline are walked
/// backwards to find the event that explains the expiry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RtoForensicRec {
    /// When the RTO fired.
    pub at: SimTime,
    /// The flow that timed out.
    pub flow: u32,
    /// Oldest unacknowledged byte at expiry.
    pub seq: u64,
    /// Attributed root cause.
    pub cause: RtoCause,
    /// Node where the root-cause event happened (0 when unknown).
    pub node: u32,
    /// Port of the root-cause event.
    pub port: u32,
    /// When the root-cause event happened ([`SimTime::ZERO`] when unknown).
    pub root_at: SimTime,
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Per-flow records (same order as the input specs).
    pub flows: Vec<FlowRecord>,
    /// Aggregate counters.
    pub agg: AggregateStats,
    /// Per-RTO forensic records, in firing order.
    pub forensics: Vec<RtoForensicRec>,
    /// The metrics registry, populated when [`Engine::set_metrics`] was
    /// called before the run (`None` otherwise).
    pub metrics: Option<Registry>,
    /// The engine profile (per-event-kind tallies, queue health, sim-time
    /// series). `Some` only when the `profile` feature is compiled in.
    pub profile: Option<telemetry::Profile>,
    /// Per-flow latency ledgers: the closed per-phase time decomposition
    /// (`Σ phases == FCT` for completed flows). `Some` only when the
    /// `ledger` feature is compiled in.
    pub ledger: Option<Vec<crate::latency::FlowLedgerRecord>>,
}

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

#[cfg(feature = "profile")]
impl Event {
    /// The profiler's kind bucket for this event.
    fn kind(&self) -> crate::profile::EvKind {
        use crate::profile::EvKind;
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

/// Maps a transport timer slot onto the telemetry schema's id.
fn timer_id(kind: TimerKind) -> TimerId {
    match kind {
        TimerKind::Rto => TimerId::Rto,
        TimerKind::Tlp => TimerId::Tlp,
        TimerKind::Pace => TimerId::Pace,
        TimerKind::DcqcnAlpha => TimerId::DcqcnAlpha,
        TimerKind::DcqcnIncrease => TimerId::DcqcnIncrease,
    }
}

/// Every timer slot, in a *fixed* order — audits and disarm sweeps iterate
/// this array (never a hash map) so event schedules stay deterministic.
const TIMER_KINDS: [TimerKind; 5] = [
    TimerKind::Rto,
    TimerKind::Tlp,
    TimerKind::Pace,
    TimerKind::DcqcnAlpha,
    TimerKind::DcqcnIncrease,
];

fn timer_slot(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Rto => 0,
        TimerKind::Tlp => 1,
        TimerKind::Pace => 2,
        TimerKind::DcqcnAlpha => 3,
        TimerKind::DcqcnIncrease => 4,
    }
}

/// One egress port's hot record: everything `kick_port`, `deliver` and
/// `send_pfc` need for a packet hop, in one cache line (DESIGN §12 "Port
/// table"). The engine keeps them in one flat table indexed by
/// `port_base[node] + port`.
#[derive(Clone, Copy)]
struct Port {
    /// A frame was handed to the wire and its `TxDone` has not executed.
    /// With `tx_done_queued` clear that `TxDone` is *virtual* (DESIGN §12
    /// "Lazy TxDone"): `busy` then only means "busy until `(free_at,
    /// free_seq)`", and `kick_port` is where it is resolved.
    busy: bool,
    paused: bool,
    /// Whether that `TxDone` is actually in the event queue.
    tx_done_queued: bool,
    /// When the frame being serialized leaves the port, and the tie-break
    /// seq reserved for the `TxDone` of that instant.
    free_at: SimTime,
    free_seq: u64,
    /// The wire this port transmits on, copied from [`Topology`] at
    /// construction: the directed link, the `(node, port)` at its far end,
    /// its rate and delay. Links never change after the build (faults live
    /// in [`FaultState`], keyed by `lid`), so the copy cannot go stale.
    lid: LinkId,
    peer: (NodeId, PortId),
    spec: LinkSpec,
    /// One-entry serialization-time memo: `memo_tx` is the transmit time of
    /// a `memo_wire`-byte frame on this link. Zero bytes means empty (every
    /// frame carries a header).
    memo_wire: u32,
    memo_tx: SimTime,
}

impl Port {
    /// The directed link *arriving* at this port: `connect` allocates the
    /// two directions of a cable as an even/odd pair, so it is the egress
    /// link with the low bit flipped (`Topology::reverse_link`).
    #[inline]
    fn in_link(&self) -> LinkId {
        LinkId(self.lid.0 ^ 1)
    }
}

/// A port's PFC pause accounting, in a vector parallel to the port table:
/// written on pause transitions and read at collect, never on a packet hop.
#[derive(Clone, Copy, Default)]
struct PauseAcct {
    paused_since: SimTime,
    paused_total: SimTime,
    ever_paused: bool,
}

/// Whether construction audits the port table against [`Topology`]: debug
/// builds, and release builds with the invariant auditors on.
const CHECK_PORT_TABLE: bool = cfg!(any(debug_assertions, feature = "strict-invariants"));

/// Per-flow ring capacity for [`LossEvent`] provenance records. Bounds the
/// forensic memory per flow; RTO attribution only needs the recent past.
const LOSS_RING: usize = 64;

/// Engine-wide ring capacity for completed PFC pause episodes.
const PAUSE_LOG: usize = 128;

/// One frame loss, remembered for RTO attribution.
#[derive(Clone, Copy)]
struct LossEvent {
    at: SimTime,
    node: u32,
    port: u32,
    why: DropWhy,
    dir: Direction,
    control: bool,
    epoch: u32,
}

/// One completed PFC pause episode on an egress port.
#[derive(Clone, Copy)]
struct PauseEpisode {
    node: u32,
    port: u32,
    start: SimTime,
    end: SimTime,
}

struct FlowRuntime {
    spec: FlowSpec,
    src: NodeId,
    dst: NodeId,
    path_fwd: Vec<Hop>,
    path_rev: Vec<Hop>,
    sender: Box<dyn FlowSender>,
    receiver: Box<dyn FlowReceiver>,
    timer_gen: [u64; TIMER_KINDS.len()],
    timer_armed: [bool; TIMER_KINDS.len()],
    complete_at: Option<SimTime>,
    /// Transmit epoch stamped onto outgoing packets; advances when an RTO
    /// is attributed, so loss records separate retransmission rounds.
    tx_epoch: u32,
    /// When the currently-armed RTO timer was set (the PFC-stall window).
    rto_armed_at: SimTime,
    /// Recent losses involving this flow's packets, oldest first.
    losses: std::collections::VecDeque<LossEvent>,
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
    timer_deadline: [SimTime; TIMER_KINDS.len()],
    timer_queued_at: [Option<SimTime>; TIMER_KINDS.len()],
    timer_queued_gen: [u64; TIMER_KINDS.len()],
    timer_res_seq: [u64; TIMER_KINDS.len()],
    /// Latency-ledger state: timeline frontier, recovery mode, per-phase
    /// accumulators, stall ring.
    #[cfg(feature = "ledger")]
    lg: crate::latency::FlowLedger,
}

/// Cumulative time a port has spent PFC-paused up to `now`. The latency
/// ledger snapshots this at wait-begin and diffs it at dequeue, so the PFC
/// share of any wait costs two u64 reads, never a timeline walk.
#[cfg(feature = "ledger")]
fn pause_cum_ns(paused: bool, acct: Option<&PauseAcct>, now: SimTime) -> u64 {
    let Some(acct) = acct else { return 0 };
    acct.paused_total.as_ns()
        + if paused {
            (now - acct.paused_since).as_ns()
        } else {
            0
        }
}

/// The simulation engine. See the crate docs for an end-to-end example.
pub struct Engine {
    cfg: SimConfig,
    topo: Topology,
    switches: Vec<Option<Switch>>,
    /// The port table: `(node, port)` lives at `port_base[node] + port`;
    /// `port_base` has one entry past the last node so a node's ports are
    /// `port_base[n]..port_base[n + 1]`.
    ports: Vec<Port>,
    /// Pause accounting on the same index. Empty until the first PFC pause
    /// of the run, so a fabric that never pauses never pays for it.
    pause_acct: Vec<PauseAcct>,
    port_base: Vec<u32>,
    host_q: Vec<std::collections::VecDeque<PacketRef>>,
    flows: Vec<FlowRuntime>,
    /// Flow-completion callbacks: `dependents[p]` lists the flows whose
    /// `FlowSpec::after == Some(p)`; their FlowStart is scheduled when `p`
    /// completes (fan-out/fan-in request chains). Drained on fire.
    dependents: Vec<Vec<u32>>,
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
    /// Strict-invariant conservation ledger: engine-side per-link and
    /// per-drop-reason accounting, audited against [`AggregateStats`] at
    /// drain time.
    #[cfg(feature = "strict-invariants")]
    ledger: crate::ledger::ConservationLedger,
    /// Event-level profiler: per-kind schedule/execute tallies, fan-out and
    /// queue-depth histograms, and sim-time series. Created in `new` (like
    /// the ledger) so constructor-time scheduling is counted too.
    #[cfg(feature = "profile")]
    prof: crate::profile::EngineProf,
}

impl Engine {
    /// Builds an engine for `cfg` over the given flows.
    ///
    /// # Panics
    ///
    /// Panics if a flow references a host index that does not exist or has
    /// `src == dst`.
    pub fn new(cfg: SimConfig, specs: Vec<FlowSpec>) -> Engine {
        let topo = cfg.topology.build();
        let hosts = topo.hosts().to_vec();
        let n_nodes = topo.node_count();

        // Per-node switch instances, and the port table: every port's wire
        // is resolved here, once, so the run loop never walks `topo`.
        let mut switches: Vec<Option<Switch>> = Vec::with_capacity(n_nodes);
        let mut ports: Vec<Port> = Vec::with_capacity(topo.link_count());
        let mut port_base: Vec<u32> = Vec::with_capacity(n_nodes + 1);
        let idx32 = |i: usize| u32::try_from(i).expect("port table fits a u32 index");
        for n in 0..n_nodes {
            let node = NodeId(n as u32);
            let n_ports = topo.port_count(node);
            port_base.push(idx32(ports.len()));
            let mut sw = (topo.kind(node) == NodeKind::Switch).then(|| {
                let sw_cfg = SwitchConfig {
                    ports: n_ports,
                    total_buffer: cfg.switch.buffer_bytes,
                    alpha: cfg.switch.alpha,
                    color_threshold: cfg.switch.color_threshold,
                    ecn: cfg.switch.ecn,
                    pfc: cfg
                        .pfc
                        .then(|| PfcConfig::derive(cfg.switch.buffer_bytes, n_ports)),
                    int_enabled: cfg.transport == TransportKind::Hpcc,
                    port_rate_bps: topo.link_from(node, PortId(0)).1.spec.bandwidth_bps,
                };
                Switch::new(sw_cfg, cfg.seed ^ (n as u64) << 17)
            });
            for p in 0..n_ports {
                let port = PortId(idx32(p));
                let (lid, rec) = topo.link_from(node, port);
                // INT hops report the capacity of the egress they left by,
                // which need not be port 0's.
                if let Some(sw) = sw.as_mut() {
                    sw.set_port_rate(port, rec.spec.bandwidth_bps);
                }
                ports.push(Port {
                    busy: false,
                    paused: false,
                    tx_done_queued: false,
                    free_at: SimTime::ZERO,
                    free_seq: 0,
                    lid,
                    peer: rec.to,
                    spec: rec.spec,
                    memo_wire: 0,
                    memo_tx: SimTime::ZERO,
                });
            }
            switches.push(sw);
        }
        port_base.push(idx32(ports.len()));
        let host_q = (0..n_nodes)
            .map(|_| std::collections::VecDeque::new())
            .collect();

        // Base RTT: twice the one-way delay of the longest path plus a
        // handful of serialization times — we use the pure propagation
        // figure the paper quotes (e.g. 80 μs for 4 hops at 10 μs).
        let max_hops = match cfg.topology {
            netsim::topology::TopologySpec::FatTree { .. } => 6,
            netsim::topology::TopologySpec::LeafSpine { .. } => 4,
            netsim::topology::TopologySpec::Dumbbell { .. } => 3,
            netsim::topology::TopologySpec::SingleSwitch { .. } => 2,
        };
        let link = topo.link_from(hosts[0], PortId(0)).1.spec;
        let base_rtt = cfg
            .base_rtt
            .unwrap_or(SimTime::from_ns(2 * max_hops * link.delay.as_ns()));
        let bdp = link.bdp_bytes(base_rtt).max(u64::from(cfg.mss) * 4);

        // Pre-size the queue's node arena to the expected peak depth so it
        // does not regrow mid-run; small runs stay small via the per-flow
        // term. Measured peaks on the benchmark's seven workloads
        // (`eventsim.queue_peak_depth`) are 0.9 to 3.7 pending events per
        // flow and 2.5k to 12.5k in all, so four nodes per flow under a 16k
        // cap covers each of them (with room: that depth also counts the
        // far-heap entries, which take no node). Reserved nodes are
        // untouched memory until used; a deeper run just grows the arena.
        let queue_cap = (specs.len().saturating_mul(4) + 256).min(1 << 14);
        let mut queue = EventQueue::with_capacity(queue_cap);
        // Constructor-time scheduling happens before the engine (and its
        // `sched` shim) exists, so the profiler is created here and bumped
        // at each local schedule site.
        #[cfg(feature = "profile")]
        let mut prof = crate::profile::EngineProf::new();
        let mut flows = Vec::with_capacity(specs.len());
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); specs.len()];
        for (i, spec) in specs.into_iter().enumerate() {
            for h in [spec.src, spec.dst] {
                assert!(
                    h < hosts.len(),
                    "flow {i}: host {h} out of range ({} hosts)",
                    hosts.len()
                );
            }
            assert_ne!(spec.src, spec.dst, "flow {i}: src == dst");
            let src = hosts[spec.src];
            let dst = hosts[spec.dst];
            let hash = Topology::ecmp_hash(src, dst, i as u64 ^ cfg.seed);
            let (path_fwd, path_rev) = topo.pin_paths(src, dst, hash);
            let (sender, receiver) =
                build_transport(&cfg, FlowId(i as u32), spec.bytes, base_rtt, bdp);
            match spec.after {
                // A dependent flow waits for its parent's completion
                // callback instead of an absolute FlowStart.
                Some(parent) => {
                    assert!(
                        (parent as usize) < i,
                        "flow {i}: completion trigger {parent} must precede it"
                    );
                    dependents[parent as usize].push(i as u32);
                }
                None => {
                    #[cfg(feature = "profile")]
                    prof.on_sched(crate::profile::EvKind::FlowStart);
                    queue.schedule(spec.start, Event::FlowStart(i as u32));
                }
            }
            flows.push(FlowRuntime {
                spec,
                src,
                dst,
                path_fwd,
                path_rev,
                sender,
                receiver,
                timer_gen: [0; TIMER_KINDS.len()],
                timer_armed: [false; TIMER_KINDS.len()],
                complete_at: None,
                tx_epoch: 0,
                rto_armed_at: SimTime::ZERO,
                losses: std::collections::VecDeque::new(),
                timer_deadline: [SimTime::ZERO; TIMER_KINDS.len()],
                timer_queued_at: [None; TIMER_KINDS.len()],
                timer_queued_gen: [0; TIMER_KINDS.len()],
                timer_res_seq: [0; TIMER_KINDS.len()],
                #[cfg(feature = "ledger")]
                lg: crate::latency::FlowLedger::default(),
            });
        }
        if let Some(every) = cfg.queue_sample_every {
            #[cfg(feature = "profile")]
            prof.on_sched(crate::profile::EvKind::QueueSample);
            queue.schedule(every, Event::QueueSample);
        }

        // Per-link fault state. The seed derivation matches the old global
        // `WireFault` exactly, so `wire_loss_rate` runs reproduce the
        // historical drop pattern byte for byte.
        let mut fstate = FaultState::new(topo.link_count(), cfg.seed ^ 0x5717E_u64);
        if cfg.wire_loss_rate > 0.0 {
            fstate.set_uniform_loss(cfg.wire_loss_rate);
        }
        // Faults ride the main event queue (stable FIFO tie-break keeps
        // list order at equal timestamps), so `--jobs N` determinism holds.
        for (i, ev) in cfg.faults.events().iter().enumerate() {
            let n = ev.node.0 as usize;
            assert!(n < topo.node_count(), "fault {i}: node {n} out of range");
            assert!(
                (ev.port.0 as usize) < topo.port_count(ev.node),
                "fault {i}: port {} out of range for node {n}",
                ev.port.0
            );
            if matches!(ev.action, FaultAction::PauseStorm { .. }) {
                assert_eq!(
                    topo.kind(ev.node),
                    NodeKind::Switch,
                    "fault {i}: pause storms target a switch ingress"
                );
            }
            #[cfg(feature = "profile")]
            prof.on_sched(crate::profile::EvKind::Fault);
            queue.schedule(ev.at, Event::Fault(i as u32));
        }

        let eng = Engine {
            cfg,
            #[cfg(feature = "strict-invariants")]
            ledger: crate::ledger::ConservationLedger::new(topo.link_count()),
            #[cfg(feature = "profile")]
            prof,
            topo,
            switches,
            ports,
            pause_acct: Vec::new(),
            port_base,
            host_q,
            flows,
            dependents,
            queue,
            pkts: PacketSlab::with_capacity(1024),
            now: SimTime::ZERO,
            actions: Vec::new(),
            base_rtt,
            bdp,
            faults: fstate,
            faults_injected: 0,
            first_fault_at: None,
            reroutes: 0,
            tracer: Tracer::off(),
            pause_log: std::collections::VecDeque::new(),
            rto_causes: RtoCauseCounts::default(),
            forensics: Vec::new(),
            metrics: None,
        };
        if CHECK_PORT_TABLE {
            eng.check_port_table();
        }
        eng
    }

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

    /// Every record of the port table says what [`Topology`] says about
    /// its port, and everything kept on the port index covers exactly that
    /// table (run by `new` and `set_metrics` in debug and
    /// `strict-invariants` builds).
    fn check_port_table(&self) {
        assert_eq!(self.ports.len(), self.topo.link_count());
        if let Some(m) = &self.metrics {
            assert_eq!(m.port_count(), self.ports.len(), "metric accumulators");
        }
        for n in 0..self.topo.node_count() {
            let node = NodeId(n as u32);
            assert_eq!(
                (self.port_base[n + 1] - self.port_base[n]) as usize,
                self.topo.port_count(node),
                "port range of node {n}"
            );
            for p in 0..self.topo.port_count(node) {
                let port = PortId(p as u32);
                let rec = &self.ports[self.port_index(node, port)];
                let (lid, link) = self.topo.link_from(node, port);
                assert_eq!(
                    (rec.lid, rec.peer, rec.spec),
                    (lid, link.to, link.spec),
                    "port table entry for node {n} port {p}"
                );
                assert_eq!(
                    rec.in_link(),
                    self.topo.incoming_link(node, port),
                    "incoming link of node {n} port {p}"
                );
            }
        }
    }

    /// Attaches the flight recorder: every switch, transport sender, and the
    /// engine itself emit [`TraceEvent`]s into `tracer`'s sink. When
    /// `cfg.trace_sample_every` is set, per-port `PortSample` telemetry is
    /// scheduled too. Call before [`Engine::run`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for (n, sw) in self.switches.iter_mut().enumerate() {
            if let Some(sw) = sw {
                sw.set_tracer(tracer.clone(), n as u32);
            }
        }
        for rt in &mut self.flows {
            rt.sender.set_tracer(tracer.clone());
        }
        if tracer.is_on() {
            if let Some(every) = self.cfg.trace_sample_every {
                self.sched(every, Event::TraceSample);
            }
        }
        self.tracer = tracer;
    }

    /// Enables the metrics registry: per-port queue-depth histograms and
    /// watermarks, PFC pause-duration histograms, and end-of-run counters
    /// (RTO root causes, drop/mark totals, TLT transmit overhead). Call
    /// before [`Engine::run`]; the populated [`Registry`] is returned in
    /// [`SimResult::metrics`].
    pub fn set_metrics(&mut self) {
        self.metrics = Some(PortMetrics::new(self.ports.len()));
        if CHECK_PORT_TABLE {
            self.check_port_table();
        }
    }

    /// Schedules `ev` at `at`, counting it in the profiler. Every
    /// post-construction schedule site routes through here — `finish()`
    /// debug-asserts that the per-kind tallies sum to the queue's own
    /// `scheduled_total`, so a bypassing call site is caught in tests.
    #[inline]
    fn sched(&mut self, at: SimTime, ev: Event) {
        #[cfg(feature = "profile")]
        self.prof.on_sched(ev.kind());
        self.queue.schedule(at, ev);
    }

    /// Sum of all switch egress queue bytes (the profiler's occupancy
    /// series sample).
    #[cfg(feature = "profile")]
    fn total_queue_bytes(&self) -> u64 {
        self.switches
            .iter()
            .flatten()
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
        let mut queue_samples = Samples::new();
        let mut remaining: usize = self.flows.len();
        let mut done_flag = vec![false; self.flows.len()];

        // Incremental completion tracking: only the flow an event touched
        // can change doneness, so the check is O(1) per event.
        macro_rules! check_done {
            ($f:expr) => {{
                let i = $f as usize;
                if !done_flag[i] {
                    let rt = &self.flows[i];
                    if rt.complete_at.is_some() && rt.sender.is_done() {
                        done_flag[i] = true;
                        remaining -= 1;
                        // A finished flow must not leave timers armed: a
                        // stale RTO would keep the event loop spinning and
                        // show up as a leak in the end-of-run audit.
                        self.disarm_timers($f);
                    }
                }
            }};
        }

        while let Some((t, ev)) = self.queue.pop() {
            if t > self.cfg.max_time {
                // Popped past the horizon without executing: cancelled,
                // like everything still in the queue (drained in collect).
                #[cfg(feature = "profile")]
                self.prof.on_unpopped(ev.kind());
                break;
            }
            self.now = t;
            #[cfg(feature = "profile")]
            let prof_kind = ev.kind();
            // Fan-out proxy: how many events this handler schedules
            // (counting seq reservations, so deferred timer arms still
            // register as the handler's work).
            #[cfg(feature = "profile")]
            let prof_sched_before = self.queue.seq_total();
            #[cfg(feature = "profile")]
            if self.prof.window_due(t) {
                let qbytes = self.total_queue_bytes();
                self.prof.on_window(t, qbytes);
            }
            match ev {
                Event::FlowStart(f) => {
                    let bytes = self.flows[f as usize].spec.bytes;
                    self.tracer
                        .emit(t, || TraceEvent::FlowStart { flow: f, bytes });
                    let rt = &mut self.flows[f as usize];
                    // The ledger opens at FlowStart *execution*, which is
                    // also the recorded `spec.start` (dependent flows have
                    // it rewritten to the absolute release time), so the
                    // frontier and the FCT base coincide exactly.
                    #[cfg(feature = "ledger")]
                    rt.lg.begin(t.as_ns());
                    rt.sender.start(&mut Ctx {
                        now: t,
                        actions: &mut self.actions,
                    });
                    self.flush_actions(f);
                    check_done!(f);
                }
                Event::Deliver { to, in_port, pkt } => {
                    let f = self.pkts.get(pkt).flow.0;
                    let endpoint = self.deliver(to, in_port, pkt);
                    if endpoint {
                        check_done!(f);
                    }
                }
                Event::TxDone { node, port } => self.tx_done(node, port),
                Event::Timer { flow, kind, gen } => {
                    let slot = timer_slot(kind);
                    let rt = &mut self.flows[flow as usize];
                    // This pop consumes the slot's in-queue entry (if it is
                    // still ours: a later arm may have queued a new one).
                    if rt.timer_queued_at[slot].is_some() && rt.timer_queued_gen[slot] == gen {
                        rt.timer_queued_at[slot] = None;
                    }
                    let live = rt.timer_gen[slot] == gen;
                    #[cfg(feature = "profile")]
                    if !live {
                        // Generation mismatch: this pop is a cancellation.
                        self.prof.note_stale_timer();
                    }
                    if !live {
                        // A superseding arm may have parked a deadline on
                        // this slot waiting for our entry to clear —
                        // materialize it now, at its reserved seq, exactly
                        // where an eager push would have popped.
                        let rt = &mut self.flows[flow as usize];
                        if rt.timer_armed[slot] && rt.timer_queued_at[slot].is_none() {
                            let at = rt.timer_deadline[slot];
                            let g = rt.timer_gen[slot];
                            let seq = rt.timer_res_seq[slot];
                            rt.timer_queued_at[slot] = Some(at);
                            rt.timer_queued_gen[slot] = g;
                            #[cfg(feature = "profile")]
                            self.prof.on_sched(crate::profile::EvKind::Timer);
                            self.queue.schedule_with_seq(
                                at,
                                seq,
                                Event::Timer { flow, kind, gen: g },
                            );
                        }
                    }
                    if live {
                        self.flows[flow as usize].timer_armed[slot] = false;
                        self.tracer.emit(t, || TraceEvent::TimerFire {
                            flow,
                            kind: timer_id(kind),
                        });
                        // RTO forensics: detect whether this firing actually
                        // registered a timeout (the transport may ignore a
                        // stale timer), and attribute it *before* flushing
                        // actions so the retransmissions carry the new epoch.
                        let pre_rto = (kind == TimerKind::Rto)
                            .then(|| self.flows[flow as usize].sender.stats().timeouts);
                        let rt = &mut self.flows[flow as usize];
                        rt.sender.on_timer(
                            kind,
                            &mut Ctx {
                                now: t,
                                actions: &mut self.actions,
                            },
                        );
                        if let Some(pre) = pre_rto {
                            if self.flows[flow as usize].sender.stats().timeouts > pre {
                                self.attribute_rto(flow, t);
                            }
                        }
                        self.flush_actions(flow);
                        check_done!(flow);
                    }
                }
                Event::PfcSet { node, port, pause } => {
                    let i = self.port_index(node, port);
                    if self.pause_acct.is_empty() {
                        self.pause_acct = vec![PauseAcct::default(); self.ports.len()];
                    }
                    let ps = &mut self.ports[i];
                    let acct = &mut self.pause_acct[i];
                    if pause && !ps.paused {
                        ps.paused = true;
                        acct.ever_paused = true;
                        acct.paused_since = t;
                        self.tracer.emit(t, || TraceEvent::LinkPause {
                            node: node.0,
                            port: port.0,
                        });
                    } else if !pause && ps.paused {
                        ps.paused = false;
                        let started = acct.paused_since;
                        acct.paused_total += t - started;
                        // Log the episode for RTO attribution and observe
                        // its duration when metrics are on.
                        if self.pause_log.len() == PAUSE_LOG {
                            self.pause_log.pop_front();
                        }
                        self.pause_log.push_back(PauseEpisode {
                            node: node.0,
                            port: port.0,
                            start: started,
                            end: t,
                        });
                        if let Some(m) = self.metrics.as_mut() {
                            m.on_pause_end(i, (t - started).as_ns());
                        }
                        self.tracer.emit(t, || TraceEvent::LinkResume {
                            node: node.0,
                            port: port.0,
                        });
                        self.kick_port(node, port);
                    }
                }
                Event::QueueSample => {
                    let max_q = self
                        .switches
                        .iter()
                        .flatten()
                        .flat_map(|sw| {
                            (0..sw.config().ports).map(move |p| sw.queue_bytes(PortId(p as u32)))
                        })
                        .max()
                        .unwrap_or(0);
                    queue_samples.push(max_q as f64);
                    if let Some(every) = self.cfg.queue_sample_every {
                        if remaining > 0 {
                            self.sched(t + every, Event::QueueSample);
                        }
                    }
                }
                Event::TraceSample => {
                    for (n, sw) in self.switches.iter().enumerate() {
                        let Some(sw) = sw else { continue };
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
                        if remaining > 0 {
                            self.sched(t + every, Event::TraceSample);
                        }
                    }
                }
                Event::Fault(i) => self.apply_fault(i as usize),
                Event::StormEnd { node, port } => {
                    self.tracer.emit(t, || TraceEvent::Fault {
                        kind: FaultKind::StormEnd,
                        node: node.0,
                        port: port.0,
                    });
                    let sw = self.switches[node.0 as usize]
                        .as_mut()
                        .expect("storm target must be a switch");
                    if let Some(sig) = sw.storm_xon(port, t) {
                        self.send_pfc(node, sig);
                    }
                }
                Event::Reroute => self.reroute_flows(),
            }
            #[cfg(feature = "profile")]
            {
                let fanout = self.queue.seq_total() - prof_sched_before;
                self.prof
                    .on_pop(prof_kind, t, fanout, self.queue.len() as u64);
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

        self.collect(queue_samples)
    }

    fn collect(mut self, queue_samples: Samples) -> SimResult {
        // Close out pause accounting.
        let end = self.now;
        let mut pause_fracs = Vec::new();
        for (i, (ps, acct)) in self.ports.iter_mut().zip(&mut self.pause_acct).enumerate() {
            if ps.paused {
                let d = end - acct.paused_since;
                acct.paused_total += d;
                ps.paused = false;
                // A port still paused at the end is a truncated episode;
                // its duration-so-far still belongs in the histogram.
                if let Some(m) = self.metrics.as_mut() {
                    m.on_pause_end(i, d.as_ns());
                }
            }
            if acct.ever_paused && end > SimTime::ZERO {
                pause_fracs.push(acct.paused_total.as_secs_f64() / end.as_secs_f64());
            }
        }

        let mut agg = AggregateStats {
            duration: end,
            // Logical events: one per schedule call *or* timer-arm seq
            // reservation — identical whether a superseded timer's queue
            // entry materialized or not, so figures and metrics match the
            // eager-push engine byte for byte.
            events_scheduled: self.queue.seq_total(),
            wire_drops: self.faults.wire_drops,
            down_drops: self.faults.down_drops,
            faults_injected: self.faults_injected,
            first_fault_at: self.first_fault_at.unwrap_or(SimTime::ZERO),
            reroutes: self.reroutes,
            rto_causes: self.rto_causes,
            queue_samples,
            link_pause_fraction: if pause_fracs.is_empty() {
                0.0
            } else {
                pause_fracs.iter().sum::<f64>() / pause_fracs.len() as f64
            },
            ..AggregateStats::default()
        };
        for sw in self.switches.iter().flatten() {
            let s = sw.stats();
            agg.drops_color += s.drops_color;
            agg.drops_dt += s.drops_dt;
            agg.drops_overflow += s.drops_overflow;
            agg.drops_green_data += s.drops_green_data;
            agg.green_data_pkts += s.green_data_pkts;
            agg.ce_marked += s.ce_marked;
            agg.pause_frames += s.pauses_sent;
            agg.max_queue_bytes = agg.max_queue_bytes.max(s.max_queue_bytes);
        }

        let mut flows = Vec::with_capacity(self.flows.len());
        for (i, rt) in self.flows.iter().enumerate() {
            if rt.complete_at.is_some() && rt.sender.is_done() {
                // Completion disarms every slot; anything still armed is a
                // leak (and would have kept the event loop busy).
                agg.timers_leaked += rt.timer_armed.iter().filter(|a| **a).count() as u64;
            }
            let st = rt.sender.stats();
            agg.timeouts += st.timeouts;
            agg.fast_retx += st.fast_retx;
            agg.data_pkts_sent += st.data_pkts_sent;
            agg.important_pkts += st.important_pkts;
            agg.unimportant_pkts += st.unimportant_pkts;
            agg.clocking_pkts += st.clocking_pkts;
            agg.clocking_bytes += st.clocking_bytes;
            let (rtt, rto) = if rt.spec.fg {
                (&mut agg.fg_rtt, &mut agg.fg_rto)
            } else {
                (&mut agg.bg_rtt, &mut agg.bg_rto)
            };
            for s in &st.rtt_samples {
                rtt.push(s.as_secs_f64());
            }
            if st.rto_max > SimTime::ZERO {
                rto.push(st.rto_max.as_secs_f64());
            }
            for d in &st.delivery_samples {
                agg.delivery.push(d.as_secs_f64());
            }
            flows.push(FlowRecord {
                id: i as u32,
                src: rt.src.0,
                dst: rt.dst.0,
                bytes: rt.spec.bytes,
                start: rt.spec.start,
                end: rt.complete_at,
                fg: rt.spec.fg,
                timeouts: st.timeouts,
                retx: st.fast_retx + st.rto_retx,
            });
        }
        #[cfg(feature = "strict-invariants")]
        self.ledger.audit_final(&agg);

        // Seal the latency ledgers. This is where the tentpole invariant is
        // audited: for every completed flow the per-arrival windows must
        // tile [start, completion] exactly, so Σ phases == FCT with zero
        // unattributed time — across the full fault grid, not just clean
        // runs.
        #[cfg(feature = "ledger")]
        let ledger = Some(
            self.flows
                .iter()
                .enumerate()
                .map(|(i, rt)| {
                    let rec = rt.lg.to_record(i as u32, rt.complete_at.map(|t| t.as_ns()));
                    #[cfg(feature = "strict-invariants")]
                    debug_assert_eq!(
                        rec.residue(),
                        rt.complete_at.map(|_| 0i128),
                        "flow {i}: latency ledger not conserved ({:?})",
                        rec.phases
                    );
                    rec
                })
                .collect(),
        );
        #[cfg(not(feature = "ledger"))]
        let ledger = None;

        // Seal the metrics registry with the end-of-run counters. Every
        // name is always written (even at zero) so the exported schema is
        // identical across runs and configurations.
        let metrics = self.metrics.take().map(|m| {
            let mut r = Registry::new();
            m.publish(&self.port_base, &mut r);
            for (cause, n) in agg.rto_causes.iter() {
                r.inc(&format!("rto_cause_{}", cause.as_str()), n);
            }
            r.inc("timeouts", agg.timeouts);
            r.inc("fast_retx", agg.fast_retx);
            r.inc("data_pkts_sent", agg.data_pkts_sent);
            r.inc("tlt_important_pkts", agg.important_pkts);
            r.inc("tlt_unimportant_pkts", agg.unimportant_pkts);
            r.inc("tlt_clocking_pkts", agg.clocking_pkts);
            r.inc("tlt_clocking_bytes", agg.clocking_bytes);
            r.inc("ce_marked", agg.ce_marked);
            r.inc("pause_frames", agg.pause_frames);
            r.inc("drops_color", agg.drops_color);
            r.inc("drops_dt", agg.drops_dt);
            r.inc("drops_overflow", agg.drops_overflow);
            r.inc("drops_wire", agg.wire_drops);
            r.inc("drops_down", agg.down_drops);
            r.inc("events_scheduled", agg.events_scheduled);
            r.gauge_max("max_queue_bytes", agg.max_queue_bytes);
            r
        });
        // Seal the profiler: everything still queued (post-horizon samples,
        // disarmed timers, events orphaned by the all-flows-done break) is
        // cancelled-by-truncation. Queue health counters are snapshotted
        // first so the accounting drain itself isn't measured.
        #[cfg(feature = "profile")]
        let profile = {
            let peak = self.queue.peak_len() as u64;
            let pushes = self.queue.scheduled_total();
            let pops = self.queue.pops_total();
            while let Some((_, ev)) = self.queue.pop() {
                self.prof.on_unpopped(ev.kind());
            }
            Some(self.prof.finish(peak, pushes, pops))
        };
        #[cfg(not(feature = "profile"))]
        let profile = None;
        let forensics = std::mem::take(&mut self.forensics);
        SimResult {
            flows,
            agg,
            forensics,
            metrics,
            profile,
            ledger,
        }
    }

    /// Delivers a packet arriving at `to` on `in_port`. Returns `true` when
    /// the packet reached a flow endpoint (so the caller re-checks flow
    /// doneness).
    fn deliver(&mut self, to: NodeId, in_port: PortId, pref: PacketRef) -> bool {
        // A frame that was in flight when its link went down is destroyed
        // at the receiving end of the wire.
        let in_link = self.ports[self.port_index(to, in_port)].in_link();
        let (f, dir, hop) = {
            let p = self.pkts.get(pref);
            #[cfg(feature = "strict-invariants")]
            self.ledger.on_arrival(in_link.0 as usize, p.wire_size());
            (p.flow.0, p.dir, p.hop)
        };
        if self.faults.is_down(in_link) {
            let pkt = self.pkts.take(pref);
            self.destroy_frame(to, in_port, &pkt);
            return false;
        }
        let rt = &mut self.flows[f as usize];
        let path = match dir {
            Direction::Fwd => &rt.path_fwd,
            Direction::Rev => &rt.path_rev,
        };
        let h = hop as usize;
        if h >= path.len() {
            // A reroute may have swapped the path under a frame in flight;
            // only frames arriving at the real endpoint are delivered.
            let endpoint = match dir {
                Direction::Fwd => rt.dst,
                Direction::Rev => rt.src,
            };
            if to != endpoint {
                let pkt = self.pkts.take(pref);
                self.destroy_frame(to, in_port, &pkt);
                return false;
            }
            // Endpoint: the frame leaves the wire, so redeem its handle and
            // hand the packet to the transport.
            #[cfg(feature = "profile")]
            {
                self.prof.deliver_endpoint += 1;
            }
            let pkt = self.pkts.take(pref);
            let rt = &mut self.flows[f as usize];
            // Every endpoint arrival advances the flow's ledger frontier to
            // `now`, attributing the window behind it — by the packet's own
            // journey decomposition in normal operation, wholesale to the
            // recovery phase otherwise. The completing arrival therefore
            // closes the conservation invariant at the exact FCT instant.
            #[cfg(feature = "ledger")]
            if rt.complete_at.is_none() {
                let data_fwd = pkt.dir == Direction::Fwd && !pkt.is_control();
                rt.lg.on_arrival(self.now.as_ns(), &pkt.lg, data_fwd);
            }
            let mut ctx = Ctx {
                now: self.now,
                actions: &mut self.actions,
            };
            let mut finished = false;
            match pkt.dir {
                Direction::Fwd => {
                    rt.receiver.on_packet(&pkt, &mut ctx);
                    if rt.complete_at.is_none() && rt.receiver.is_complete() {
                        rt.complete_at = Some(self.now);
                        finished = true;
                    }
                }
                Direction::Rev => {
                    // A delivered ACK/NACK that triggers fast (or go-back-N)
                    // retransmission flips the ledger into fast recovery;
                    // the triggering arrival itself was attributed normally
                    // above, so the mode governs only the windows after it.
                    #[cfg(feature = "ledger")]
                    let pre_fast = rt.sender.stats().fast_retx;
                    rt.sender.on_packet(&pkt, &mut ctx);
                    #[cfg(feature = "ledger")]
                    if rt.complete_at.is_none() && rt.sender.stats().fast_retx > pre_fast {
                        rt.lg.on_fast_retx(self.now.as_ns());
                    }
                }
            }
            if finished {
                self.tracer
                    .emit(self.now, || TraceEvent::FlowEnd { flow: f });
                // Flow-completion callbacks: release dependent flows, their
                // `start` now interpreted as think-time after completion.
                // The spec's relative delay is rewritten to the absolute
                // start so `SimResult` records stay uniform.
                let deps = std::mem::take(&mut self.dependents[f as usize]);
                for d in deps {
                    let at = self.now + self.flows[d as usize].spec.start;
                    self.flows[d as usize].spec.start = at;
                    self.sched(at, Event::FlowStart(d));
                }
            }
            self.flush_actions(f);
            return true;
        }
        // Transit switch. After a mid-flight reroute the hop index points
        // into the *new* path, which may visit different nodes: frames
        // stranded on the old path are destroyed, not misrouted.
        if path[h].node != to {
            let pkt = self.pkts.take(pref);
            self.destroy_frame(to, in_port, &pkt);
            return false;
        }
        #[cfg(feature = "profile")]
        {
            self.prof.deliver_transit += 1;
        }
        let egress = path[h].port;
        let out = self.port_index(to, egress);
        // Provenance, captured before the switch takes ownership: a drop
        // outcome must be attributable to this flow's loss ring.
        #[cfg(feature = "ledger")]
        let pause_cum = pause_cum_ns(self.ports[out].paused, self.pause_acct.get(out), self.now);
        let (p_dir, p_ctrl, p_epoch) = {
            let p = self.pkts.get_mut(pref);
            p.hop += 1;
            // Wait-begin stamp: the journey's switch-queue segment opens at
            // arrival and closes at the egress dequeue in `kick_port`.
            #[cfg(feature = "ledger")]
            {
                p.lg.wait_since_ns = self.now.as_ns();
                p.lg.pause_cum_ns = pause_cum;
            }
            (p.dir, p.is_control(), p.epoch)
        };
        let sw = self.switches[to.0 as usize]
            .as_mut()
            .expect("transit node must be a switch");
        let outcome = sw.enqueue(pref, &mut self.pkts, in_port, egress, self.now);
        let qlen = sw.queue_bytes(egress);
        let dropped = outcome.drop.map(|r| match r {
            DropReason::ColorThreshold => DropWhy::Color,
            DropReason::DynamicThreshold => DropWhy::Dynamic,
            DropReason::BufferOverflow => DropWhy::Overflow,
        });
        #[cfg(feature = "strict-invariants")]
        if let Some(why) = dropped {
            self.ledger.account_drop(why);
        }
        if let Some(why) = dropped {
            self.note_loss(
                f,
                LossEvent {
                    at: self.now,
                    node: to.0,
                    port: egress.0,
                    why,
                    dir: p_dir,
                    control: p_ctrl,
                    epoch: p_epoch,
                },
            );
        }
        if let Some(sig) = outcome.pfc {
            self.send_pfc(to, sig);
        }
        if outcome.enqueued {
            if let Some(m) = self.metrics.as_mut() {
                m.on_enqueue(out, qlen);
            }
            self.kick_port(to, egress);
        }
        false
    }

    /// Schedules a PFC pause/resume toward the device feeding `ingress`.
    fn send_pfc(&mut self, node: NodeId, sig: PfcSignal) {
        let (ingress, pause) = match sig {
            PfcSignal::Pause(p) => (p, true),
            PfcSignal::Resume(p) => (p, false),
        };
        let rec = self.ports[self.port_index(node, ingress)];
        let (up_node, up_port) = rec.peer;
        self.sched(
            self.now + rec.spec.delay,
            Event::PfcSet {
                node: up_node,
                port: up_port,
                pause,
            },
        );
    }

    /// Whether anything waits in `(node, port)`'s egress queue (switch
    /// queue or host NIC queue).
    #[inline]
    fn has_backlog(&self, node: NodeId, port: PortId) -> bool {
        let n = node.0 as usize;
        match &self.switches[n] {
            Some(sw) => sw.has_packets(port),
            None => !self.host_q[n].is_empty(),
        }
    }

    /// Pushes the `TxDone` of the transmission in progress on `(node,
    /// port)` — table entry `i` — into its reserved FIFO slot `(free_at,
    /// free_seq)`. The one place a `TxDone` enters the queue, so the
    /// profiler counts pushes, not reservations (`sched_total ==
    /// queue_pushes`).
    fn push_tx_done(&mut self, i: usize, node: NodeId, port: PortId) {
        let ps = &mut self.ports[i];
        ps.tx_done_queued = true;
        let (at, seq) = (ps.free_at, ps.free_seq);
        #[cfg(feature = "profile")]
        self.prof.on_sched(crate::profile::EvKind::TxDone);
        self.queue
            .schedule_with_seq(at, seq, Event::TxDone { node, port });
    }

    /// A queued `TxDone` popped: the port is free, serve what waits.
    fn tx_done(&mut self, node: NodeId, port: PortId) {
        let i = self.port_index(node, port);
        let ps = &mut self.ports[i];
        ps.busy = false;
        ps.tx_done_queued = false;
        self.kick_port(node, port);
    }

    /// Starts transmitting on `(node, port)` if it is idle, unpaused, and
    /// has a packet queued.
    ///
    /// Every path that can make a port transmit funnels through here
    /// (enqueue in `deliver`, `flush_actions`, PFC resume, the `TxDone`
    /// arm), which is what lets `TxDone` be lazy: a transmission only
    /// *reserves* its `TxDone`, and the event is pushed when — and only if
    /// — something queues up behind the frame while it is still on the
    /// port. See DESIGN §12 "Lazy TxDone" for the byte-identity argument.
    fn kick_port(&mut self, node: NodeId, port: PortId) {
        let n = node.0 as usize;
        let i = self.port_index(node, port);
        let ps = self.ports[i];
        // Resolve `busy` before looking at `paused`: a paused port that is
        // still serializing with a backlog needs its `TxDone` like any
        // other.
        if ps.busy {
            if ps.tx_done_queued {
                return;
            }
            // Compare the `(time, seq)` pair, never the time alone: a frame
            // enqueued in the very nanosecond the port frees up sees it
            // busy iff the reserved `TxDone` would pop after the event
            // being executed.
            if (ps.free_at, ps.free_seq) > (self.now, self.queue.last_popped_seq()) {
                if self.has_backlog(node, port) {
                    self.push_tx_done(i, node, port);
                }
                return;
            }
            // The virtual `TxDone` already "fired", and on an empty queue
            // (anything enqueued before it would have kicked this port and
            // materialized it): the port is simply idle.
            self.ports[i].busy = false;
        }
        if ps.paused {
            return;
        }
        // `Switch::dequeue` on an empty queue returns `(None, None)` before
        // touching any counter, tracer or PFC state; eliding the idle
        // `TxDone` (whose only act was this call) relies on that.
        let pkt = if let Some(sw) = self.switches[n].as_mut() {
            let (pkt, sig) = sw.dequeue(&mut self.pkts, port, self.now);
            if let Some(sig) = sig {
                self.send_pfc(node, sig);
            }
            pkt
        } else {
            self.host_q[n].pop_front()
        };
        let Some(pkt) = pkt else { return };
        // Wait-close: the early return above guarantees the port is
        // unpaused now, so the cumulative pause counter alone bounds how
        // much of this packet's wait was PFC back-pressure; the rest is
        // host/pacing wait at a NIC or switch queueing at a switch.
        #[cfg(feature = "ledger")]
        {
            let is_host = self.switches[n].is_none();
            let cum = self.pause_acct.get(i).map_or(0, |a| a.paused_total.as_ns());
            let p = self.pkts.get_mut(pkt);
            let waited = self.now.as_ns() - p.lg.wait_since_ns;
            let paused = cum.saturating_sub(p.lg.pause_cum_ns).min(waited);
            p.lg.pause_ns += paused;
            if is_host {
                p.lg.host_ns += waited - paused;
            } else {
                p.lg.queue_ns += waited - paused;
            }
        }
        let (lid, spec, to) = (ps.lid, ps.spec, ps.peer);
        let wire = self.pkts.get(pkt).wire_size();
        // The transmit time of this size on this link was worked out for
        // the previous frame more often than not (runs of full-size data,
        // runs of ACKs). Reusing it is exact while no fault has been
        // installed: same spec, same size, same integer division. After
        // that `FaultState` answers every time, rate factors included.
        let tx = if ps.memo_wire == wire && self.faults.is_quiet() {
            ps.memo_tx
        } else {
            let tx = self.faults.tx_time(lid, &spec, wire);
            let ps = &mut self.ports[i];
            (ps.memo_wire, ps.memo_tx) = (wire, tx);
            tx
        };
        #[cfg(feature = "strict-invariants")]
        self.ledger.on_tx(lid.0 as usize, wire);
        // Always reserve the `TxDone` tie-break seq here (before the
        // `Deliver` push, where the eager schedule sat); push the event
        // only if something already waits behind this frame.
        let free_seq = self.queue.reserve_seq();
        let ps = &mut self.ports[i];
        ps.busy = true;
        ps.free_at = self.now + tx;
        ps.free_seq = free_seq;
        if self.has_backlog(node, port) {
            self.push_tx_done(i, node, port);
        }
        // Link failure: the port still spends the serialization time, but
        // the frame goes onto a dead wire and is destroyed.
        if self.faults.is_down(lid) {
            let pkt = self.pkts.take(pkt);
            self.faults.down_drops += 1;
            #[cfg(feature = "strict-invariants")]
            self.ledger
                .on_tx_dropped(lid.0 as usize, wire, DropWhy::LinkDown);
            self.tracer.emit(self.now, || TraceEvent::Drop {
                node: node.0,
                port: port.0,
                flow: pkt.flow.0,
                seq: pkt.seq,
                why: DropWhy::LinkDown,
                green: pkt.color == Color::Green && !pkt.is_control(),
            });
            self.note_loss(
                pkt.flow.0,
                LossEvent {
                    at: self.now,
                    node: node.0,
                    port: port.0,
                    why: DropWhy::LinkDown,
                    dir: pkt.dir,
                    control: pkt.is_control(),
                    epoch: pkt.epoch,
                },
            );
            return;
        }
        // Non-congestion (corruption) loss: same deal, the frame never
        // arrives. Only links with an active loss model consult the RNG.
        if self.faults.corrupts(lid) {
            let pkt = self.pkts.take(pkt);
            #[cfg(feature = "strict-invariants")]
            self.ledger
                .on_tx_dropped(lid.0 as usize, wire, DropWhy::Wire);
            self.tracer.emit(self.now, || TraceEvent::Drop {
                node: node.0,
                port: port.0,
                flow: pkt.flow.0,
                seq: pkt.seq,
                why: DropWhy::Wire,
                green: pkt.color == Color::Green && !pkt.is_control(),
            });
            self.note_loss(
                pkt.flow.0,
                LossEvent {
                    at: self.now,
                    node: node.0,
                    port: port.0,
                    why: DropWhy::Wire,
                    dir: pkt.dir,
                    control: pkt.is_control(),
                    epoch: pkt.epoch,
                },
            );
            return;
        }
        #[cfg(feature = "strict-invariants")]
        self.ledger.on_scheduled(lid.0 as usize, wire);
        // Journey contiguity: dequeue at `now`, arrival at `now + tx +
        // delay` — accumulating exactly those two terms keeps the journey's
        // phase sum equal to arrival − origin with no gap.
        #[cfg(feature = "ledger")]
        {
            let p = self.pkts.get_mut(pkt);
            p.lg.serialize_ns += tx.as_ns();
            p.lg.propagate_ns += spec.delay.as_ns();
        }
        self.sched(
            self.now + tx + spec.delay,
            Event::Deliver {
                to: to.0,
                in_port: to.1,
                pkt,
            },
        );
    }

    /// Destroys a frame lost to a link fault (downed wire or a path made
    /// stale by a reroute), attributing it in the trace and counters.
    fn destroy_frame(&mut self, node: NodeId, port: PortId, pkt: &Packet) {
        #[cfg(feature = "profile")]
        {
            self.prof.deliver_destroyed += 1;
        }
        self.faults.down_drops += 1;
        #[cfg(feature = "strict-invariants")]
        self.ledger.account_drop(DropWhy::LinkDown);
        self.tracer.emit(self.now, || TraceEvent::Drop {
            node: node.0,
            port: port.0,
            flow: pkt.flow.0,
            seq: pkt.seq,
            why: DropWhy::LinkDown,
            green: pkt.color == Color::Green && !pkt.is_control(),
        });
        self.note_loss(
            pkt.flow.0,
            LossEvent {
                at: self.now,
                node: node.0,
                port: port.0,
                why: DropWhy::LinkDown,
                dir: pkt.dir,
                control: pkt.is_control(),
                epoch: pkt.epoch,
            },
        );
    }

    /// Appends a loss to flow `f`'s bounded forensic ring.
    fn note_loss(&mut self, f: u32, ev: LossEvent) {
        let rt = &mut self.flows[f as usize];
        if rt.losses.len() == LOSS_RING {
            rt.losses.pop_front();
        }
        rt.losses.push_back(ev);
    }

    /// Attributes the RTO that flow `f`'s sender just registered at `t`.
    ///
    /// The evidence is examined in causal-precedence order: a loss of this
    /// flow's packets in the current transmit epoch (forward data losses
    /// name the drop directly, reverse/control losses starved the ACK
    /// clock), then a PFC pause overlapping the armed window on any hop of
    /// the flow's paths, then any stale-epoch loss (a retransmission round
    /// that was itself lost). A connection whose loss ring is *empty* —
    /// nothing of it was ever dropped — took a spurious, delay-induced
    /// timeout (`Delay`). Anything else is `Unknown`.
    fn attribute_rto(&mut self, f: u32, t: SimTime) {
        // The latency ledger rides the same forensic hook: the quiet window
        // that led up to this firing *was* the RTO stall, and everything
        // after is RTO recovery until a fresh-epoch data packet lands.
        #[cfg(feature = "ledger")]
        if self.flows[f as usize].complete_at.is_none() {
            self.flows[f as usize].lg.on_rto(t.as_ns());
        }
        let rt = &self.flows[f as usize];
        let epoch = rt.tx_epoch;
        let armed = rt.rto_armed_at;
        let classify = |l: &LossEvent| {
            if l.dir == Direction::Fwd && !l.control {
                RtoCause::from_drop(l.why)
            } else {
                RtoCause::AckLoss
            }
        };
        let from_ring = |want_epoch: Option<u32>| {
            // Forward data losses outrank reverse/control ones: a lost ACK
            // only matters when no data frame of the epoch died.
            let pick = |data_only: bool| {
                rt.losses
                    .iter()
                    .rev()
                    .filter(|l| want_epoch.is_none_or(|e| l.epoch == e))
                    .find(|l| !data_only || (l.dir == Direction::Fwd && !l.control))
                    .map(|l| (classify(l), l.node, l.port, l.at))
            };
            pick(true).or_else(|| pick(false))
        };
        let mut hit = from_ring(Some(epoch));
        if hit.is_none() {
            // Nothing was dropped this epoch: a PFC stall on the path can
            // hold ACKs (or data) past the timer without losing a frame.
            'pfc: for path in [&rt.path_fwd, &rt.path_rev] {
                for hop in path.iter() {
                    let (hn, hp) = (hop.node.0, hop.port.0);
                    let i = self.port_index(hop.node, hop.port);
                    // A paused port has its accounting entry.
                    if self.ports[i].paused && self.pause_acct[i].paused_since <= t {
                        let since = self.pause_acct[i].paused_since;
                        hit = Some((RtoCause::PfcStall, hn, hp, since));
                        break 'pfc;
                    }
                    for ep in self.pause_log.iter().rev() {
                        if ep.node == hn && ep.port == hp && ep.end >= armed && ep.start <= t {
                            hit = Some((RtoCause::PfcStall, hn, hp, ep.start));
                            break 'pfc;
                        }
                    }
                }
            }
        }
        if hit.is_none() {
            hit = from_ring(None);
        }
        if hit.is_none() && rt.losses.is_empty() {
            // Not a single frame of this connection ever died: the
            // outstanding data (or its ACK) is still queued in the network
            // and the timeout is spurious — queueing delay outgrew the
            // computed RTO (the paper's Figure 1 regime).
            hit = Some((RtoCause::Delay, 0, 0, armed));
        }
        let (cause, node, port, root_at) = hit.unwrap_or((RtoCause::Unknown, 0, 0, SimTime::ZERO));
        let seq = rt.sender.stats().last_rto_seq;
        self.flows[f as usize].tx_epoch += 1;
        self.rto_causes.bump(cause);
        self.tracer.emit(t, || TraceEvent::RtoForensic {
            flow: f,
            seq,
            cause,
            node,
            port,
            root_at,
        });
        self.forensics.push(RtoForensicRec {
            at: t,
            flow: f,
            seq,
            cause,
            node,
            port,
            root_at,
        });
    }

    /// Applies entry `i` of the fault schedule.
    fn apply_fault(&mut self, i: usize) {
        let ev = self.cfg.faults.events()[i];
        self.faults_injected += 1;
        self.first_fault_at.get_or_insert(self.now);
        let (node, port) = (ev.node, ev.port);
        match ev.action {
            FaultAction::LinkDown { reroute_after } => {
                let (lid, _) = self.topo.link_from(node, port);
                self.faults.set_down(lid, true);
                self.faults.set_down(self.topo.reverse_link(lid), true);
                self.tracer.emit(self.now, || TraceEvent::Fault {
                    kind: FaultKind::LinkDown,
                    node: node.0,
                    port: port.0,
                });
                if let Some(d) = reroute_after {
                    self.sched(self.now + d, Event::Reroute);
                }
            }
            FaultAction::LinkUp => {
                let (lid, _) = self.topo.link_from(node, port);
                self.faults.set_down(lid, false);
                self.faults.set_down(self.topo.reverse_link(lid), false);
                self.tracer.emit(self.now, || TraceEvent::Fault {
                    kind: FaultKind::LinkUp,
                    node: node.0,
                    port: port.0,
                });
            }
            FaultAction::Degrade { loss, rate_factor } => {
                let (lid, _) = self.topo.link_from(node, port);
                self.faults.set_loss(lid, loss);
                self.faults.set_rate_factor(lid, rate_factor);
                self.tracer.emit(self.now, || TraceEvent::Fault {
                    kind: FaultKind::Degrade,
                    node: node.0,
                    port: port.0,
                });
            }
            FaultAction::PauseStorm { duration } => {
                self.tracer.emit(self.now, || TraceEvent::Fault {
                    kind: FaultKind::StormStart,
                    node: node.0,
                    port: port.0,
                });
                let now = self.now;
                let sw = self.switches[node.0 as usize]
                    .as_mut()
                    .expect("storm target must be a switch");
                if let Some(sig) = sw.storm_xoff(port, now) {
                    self.send_pfc(node, sig);
                }
                self.sched(now + duration, Event::StormEnd { node, port });
            }
        }
    }

    /// Re-pins every live flow whose pinned path crosses a downed link onto
    /// a fully-up ECMP alternative (trying a bounded number of hash salts).
    fn reroute_flows(&mut self) {
        if !self.faults.any_down() {
            return;
        }
        let path_up = |topo: &Topology, faults: &FaultState, path: &[Hop]| {
            path.iter()
                .all(|hop| !faults.is_down(topo.link_from(hop.node, hop.port).0))
        };
        for i in 0..self.flows.len() {
            let rt = &self.flows[i];
            if rt.complete_at.is_some() && rt.sender.is_done() {
                continue;
            }
            if path_up(&self.topo, &self.faults, &rt.path_fwd)
                && path_up(&self.topo, &self.faults, &rt.path_rev)
            {
                continue;
            }
            let (src, dst) = (rt.src, rt.dst);
            let mut ok = false;
            for bump in 1..=8u64 {
                let salt = (i as u64 ^ self.cfg.seed).wrapping_add(bump << 32);
                let hash = Topology::ecmp_hash(src, dst, salt);
                let (pf, pr) = self.topo.pin_paths(src, dst, hash);
                if path_up(&self.topo, &self.faults, &pf) && path_up(&self.topo, &self.faults, &pr)
                {
                    self.flows[i].path_fwd = pf;
                    self.flows[i].path_rev = pr;
                    ok = true;
                    break;
                }
            }
            if ok {
                self.reroutes += 1;
            }
            self.tracer
                .emit(self.now, || TraceEvent::Reroute { flow: i as u32, ok });
        }
    }

    /// Cancels every armed timer of flow `f` (fixed slot order, so the
    /// trace and generation bumps are deterministic).
    fn disarm_timers(&mut self, f: u32) {
        #[cfg(feature = "profile")]
        {
            self.prof.disarm_sweeps += 1;
        }
        for kind in TIMER_KINDS {
            let s = timer_slot(kind);
            let rt = &mut self.flows[f as usize];
            if rt.timer_armed[s] {
                rt.timer_gen[s] += 1;
                rt.timer_armed[s] = false;
                #[cfg(feature = "profile")]
                {
                    self.prof.disarm_cancels += 1;
                }
                self.tracer.emit(self.now, || TraceEvent::TimerCancel {
                    flow: f,
                    kind: timer_id(kind),
                });
            }
        }
    }

    /// Applies the actions a transport callback produced for flow `f`.
    fn flush_actions(&mut self, f: u32) {
        // Swap the buffer out to satisfy the borrow checker cheaply.
        let mut actions = std::mem::take(&mut self.actions);
        for a in actions.drain(..) {
            match a {
                Action::Send(mut pkt) => {
                    let rt = &self.flows[f as usize];
                    let origin = match pkt.dir {
                        Direction::Fwd => rt.src,
                        Direction::Rev => rt.dst,
                    };
                    pkt.hop = 1;
                    pkt.epoch = rt.tx_epoch;
                    // HPCC: every switch on the way appends one INT hop to
                    // a data packet; one allocation of the final size
                    // instead of the doubling growth.
                    if self.cfg.transport == TransportKind::Hpcc && !pkt.is_control() {
                        pkt.int_stack.reserve_exact(rt.path_fwd.len() - 1);
                    }
                    // Journey origin: the packet enters the host egress
                    // queue (always port 0 of a host) right now.
                    #[cfg(feature = "ledger")]
                    {
                        let now_ns = self.now.as_ns();
                        pkt.lg.origin_ns = now_ns;
                        pkt.lg.wait_since_ns = now_ns;
                        let nic = self.port_index(origin, PortId(0));
                        pkt.lg.pause_cum_ns = pause_cum_ns(
                            self.ports[nic].paused,
                            self.pause_acct.get(nic),
                            self.now,
                        );
                    }
                    // The frame enters the arena here and stays there for
                    // its whole wire lifetime; only handles move from now on.
                    let pkt = self.pkts.insert(pkt);
                    self.host_q[origin.0 as usize].push_back(pkt);
                    self.kick_port(origin, PortId(0));
                }
                Action::SetTimer { kind, at } => {
                    let rt = &mut self.flows[f as usize];
                    let s = timer_slot(kind);
                    rt.timer_gen[s] += 1;
                    rt.timer_armed[s] = true;
                    if kind == TimerKind::Rto {
                        rt.rto_armed_at = self.now;
                    }
                    let gen = rt.timer_gen[s];
                    let at = at.max(self.now);
                    rt.timer_deadline[s] = at;
                    self.tracer.emit(self.now, || TraceEvent::TimerArm {
                        flow: f,
                        kind: timer_id(kind),
                        at,
                    });
                    // Reserve the tie-break seq unconditionally so pop
                    // order is independent of whether the push is deferred.
                    let seq = self.queue.reserve_seq();
                    let rt = &mut self.flows[f as usize];
                    rt.timer_res_seq[s] = seq;
                    // Push only when this deadline beats the slot's pending
                    // queue entry; otherwise park it — the pending pop will
                    // re-arm us (or a later SetTimer supersedes us first,
                    // and this deadline never touches the queue at all).
                    if rt.timer_queued_at[s].is_none_or(|q| at < q) {
                        rt.timer_queued_at[s] = Some(at);
                        rt.timer_queued_gen[s] = gen;
                        #[cfg(feature = "profile")]
                        self.prof.on_sched(crate::profile::EvKind::Timer);
                        self.queue
                            .schedule_with_seq(at, seq, Event::Timer { flow: f, kind, gen });
                    }
                }
                Action::CancelTimer { kind } => {
                    let rt = &mut self.flows[f as usize];
                    let s = timer_slot(kind);
                    rt.timer_gen[s] += 1;
                    rt.timer_armed[s] = false;
                    self.tracer.emit(self.now, || TraceEvent::TimerCancel {
                        flow: f,
                        kind: timer_id(kind),
                    });
                }
            }
        }
        self.actions = actions;
    }
}

/// Instantiates the sender/receiver pair for one flow.
fn build_transport(
    cfg: &SimConfig,
    flow: FlowId,
    bytes: u64,
    base_rtt: SimTime,
    bdp: u64,
) -> (Box<dyn FlowSender>, Box<dyn FlowReceiver>) {
    let tlt_on = cfg.tlt.is_some();
    match cfg.transport {
        TransportKind::Tcp | TransportKind::Dctcp | TransportKind::Hpcc => {
            let mut w = WindowCfg::new(flow, bytes);
            w.mss = cfg.mss;
            w.init_cwnd_pkts = cfg.init_cwnd_pkts;
            w.rto = cfg.rto;
            w.tlp = cfg.tlp;
            w.ecn_capable = cfg.transport == TransportKind::Dctcp;
            w.collect_delivery = cfg.collect_delivery;
            if let Some(t) = cfg.tlt {
                w.tlt = TltMode::Window(WindowTltConfig {
                    clocking: t.clocking,
                });
            }
            let rx = Box::new(TcpReceiver::new(flow, bytes, tlt_on, 8));
            let tx: Box<dyn FlowSender> = match cfg.transport {
                TransportKind::Tcp => Box::new(WindowSender::new(
                    w.clone(),
                    NewReno::new(w.mss, w.init_cwnd_pkts),
                )),
                TransportKind::Dctcp => Box::new(WindowSender::new(
                    w.clone(),
                    Dctcp::new(w.mss, w.init_cwnd_pkts),
                )),
                TransportKind::Hpcc => Box::new(WindowSender::new(
                    w.clone(),
                    Hpcc::new(w.mss, base_rtt, bdp),
                )),
                _ => unreachable!(),
            };
            (tx, rx)
        }
        TransportKind::DcqcnGbn | TransportKind::DcqcnSack | TransportKind::DcqcnIrn => {
            let recovery = match cfg.transport {
                TransportKind::DcqcnGbn => RoceRecovery::GoBackN,
                TransportKind::DcqcnSack => RoceRecovery::Selective { window_cap: None },
                _ => RoceRecovery::Selective {
                    window_cap: Some(bdp),
                },
            };
            let mut r = RoceCfg::new(flow, bytes, recovery);
            r.mss = cfg.mss;
            if cfg.transport == TransportKind::DcqcnIrn {
                // IRN's recommended RTO_high (base latency + max one-hop
                // queueing) and RTO_low for small in-flight counts. The IRN
                // paper uses RTO_low = 100 us; our shared-buffer queues can
                // delay ACKs past that even for important packets, so we
                // calibrate RTO_low to the color-threshold draining time
                // (200 kB + important headroom at 40 Gbps ~ 250 us) to keep
                // it aggressive without being dominated by spurious firing.
                r.rto_high = SimTime::from_us(1930);
                r.rto_low = Some((SimTime::from_us(300), 3));
            }
            if let Some(t) = cfg.tlt {
                let every_n = if cfg.transport == TransportKind::DcqcnGbn {
                    t.every_n
                } else {
                    // Selective recovery detects losses via SACK; periodic
                    // marking is unnecessary (§5.2 note 2).
                    None
                };
                r.tlt = TltMode::Rate(RateTltConfig { every_n });
            }
            let selective = !matches!(recovery, RoceRecovery::GoBackN);
            let rx = Box::new(RoceReceiver::new(flow, bytes, selective, tlt_on));
            (Box::new(RoceSender::new(r)), rx)
        }
    }
}

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

    /// Every scheduled event must be accounted as executed, stale, or
    /// unpopped, with the component split covering every pop — exercised
    /// on an incast with timers, PFC, and sampling all active, and on a
    /// multi-hop fat-tree run where most `TxDone`s are never pushed.
    #[test]
    #[cfg(feature = "profile")]
    fn profile_accounts_every_scheduled_event() {
        let incast = || {
            let mut cfg =
                SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(9));
            cfg.switch.buffer_bytes = 100_000;
            cfg.queue_sample_every = Some(SimTime::from_us(10));
            let flows: Vec<FlowSpec> = (1..9)
                .map(|s| FlowSpec::new(s, 0, 60_000, SimTime::ZERO, true))
                .collect();
            Engine::new(cfg, flows).run()
        };
        // Eight cross-pod flows over six-hop routes on a k=4 fat-tree.
        let multi_hop = || {
            let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(
                netsim::topology::TopologySpec::paper_fat_tree(4, SimTime::from_us(10)),
            );
            let flows: Vec<FlowSpec> = (0..8)
                .map(|s| FlowSpec::new(s, 15 - s, 60_000, SimTime::from_us(s as u64), true))
                .collect();
            Engine::new(cfg, flows).run()
        };
        let audit = |res: &SimResult| {
            let p = res.profile.as_ref().expect("profile feature is on");
            let r = &p.reg;
            let sched = r.counter("events_scheduled_total");
            // `agg.events_scheduled` counts logical events (every timer arm
            // and every transmission reserves a seq, pushed or not); the
            // profiler counts actual queue pushes, so it reads lower
            // whenever laziness saved churn.
            assert!(
                sched < res.agg.events_scheduled,
                "no push was saved: {sched} vs {}",
                res.agg.events_scheduled
            );
            assert_eq!(
                r.counter("events_executed_total") + r.counter("events_cancelled_total"),
                sched
            );
            let kind_sched: u64 = crate::profile::EvKind::ALL
                .iter()
                .map(|k| r.counter(&format!("event_sched/{}", k.name())))
                .sum();
            assert_eq!(kind_sched, sched);
            assert_eq!(r.counter("event_sched/flow_start"), 8);
            assert_eq!(r.counter("event_exec/flow_start"), 8);
            // Lazy TxDone: one is pushed only when a frame queues up behind
            // another, so pushes trail the frames delivered, and each push
            // is popped or left behind — never lost.
            assert!(r.counter("event_sched/tx_done") < r.counter("event_exec/deliver"));
            assert_eq!(
                r.counter("event_sched/tx_done"),
                r.counter("event_exec/tx_done") + r.counter("event_unpopped/tx_done")
            );
            // Component attribution covers every executed-or-stale pop.
            let comp: u64 = ["switch", "link", "transport", "timer", "fault", "sampler"]
                .iter()
                .map(|c| r.counter(&format!("component_exec/{c}")))
                .sum();
            let popped = r.counter("events_executed_total") + {
                crate::profile::EvKind::ALL
                    .iter()
                    .map(|k| r.counter(&format!("event_stale/{}", k.name())))
                    .sum::<u64>()
            };
            assert_eq!(comp, popped);
            assert!(r.gauge("queue_peak_depth") > 0);
            assert_eq!(r.counter("queue_pushes"), sched);
            // The events series saw exactly the popped (executed + stale) events.
            assert_eq!(p.series_get("events").unwrap().total_count(), popped);
            assert!(p.series_get("inflight_pkts").unwrap().total_count() > 0);
        };
        let res = incast();
        audit(&res);
        let hops = multi_hop();
        assert!(hops.flows.iter().all(|f| f.end.is_some()));
        audit(&hops);
        // Determinism: a second identical run serializes byte-identically.
        let again = incast();
        assert_eq!(
            res.profile.as_ref().unwrap().to_json(),
            again.profile.as_ref().unwrap().to_json()
        );
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

    #[test]
    #[should_panic(expected = "flow 1: host 7 out of range (3 hosts)")]
    fn out_of_range_host_is_rejected_with_the_flow_index() {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
        let flows = vec![
            FlowSpec::new(0, 1, 1_000, SimTime::ZERO, true),
            FlowSpec::new(2, 7, 1_000, SimTime::ZERO, true),
        ];
        let _ = Engine::new(cfg, flows);
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn forward_completion_trigger_is_rejected() {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
        let flows = vec![
            FlowSpec::new(0, 1, 1_000, SimTime::ZERO, true).after(1),
            FlowSpec::new(1, 0, 1_000, SimTime::ZERO, true),
        ];
        let _ = Engine::new(cfg, flows);
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
    fn golden_incast_rtos_attribute_to_bottleneck_congestion_drops() {
        // The same scripted incast as above, viewed through RTO forensics:
        // every timeout the baseline suffers must carry a root cause naming
        // an uncolored congestion drop at the bottleneck switch's egress
        // toward the sink, and TLT — which eliminates the timeouts — must
        // leave the forensic log empty.
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
        assert!(base.agg.timeouts > 0, "baseline incast must time out");
        assert_eq!(
            base.forensics.len() as u64,
            base.agg.timeouts,
            "exactly one forensic record per RTO"
        );
        assert_eq!(base.agg.rto_causes.total(), base.agg.timeouts);
        assert_eq!(
            base.agg.rto_causes.get(RtoCause::Unknown),
            0,
            "every RTO in the scripted scenario has a known root cause"
        );
        for r in &base.forensics {
            assert!(
                matches!(r.cause, RtoCause::Dynamic | RtoCause::Overflow),
                "congestion drop expected, got {:?}",
                r.cause
            );
            assert_eq!(r.node, 0, "root cause sits at the bottleneck switch");
            assert_eq!(r.port, 0, "on the egress toward the incast sink");
            assert!(r.root_at <= r.at, "the cause precedes the timeout");
        }

        let tlt = mk(true);
        assert_eq!(tlt.agg.timeouts, 0, "TLT eliminates the timeouts");
        assert!(tlt.forensics.is_empty(), "no RTO, no forensics");
        assert_eq!(tlt.agg.rto_causes.total(), 0);
    }

    #[test]
    fn golden_severed_flow_rtos_attribute_to_link_down() {
        // A flow whose only path is cut keeps RTO-probing until max_time;
        // forensics must blame the dead wire, never congestion.
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(4));
        cfg.max_time = SimTime::from_ms(50);
        cfg.faults = faults::FaultSchedule::new().link_down(SimTime::from_us(50), 3, 0);
        let flows = vec![
            FlowSpec::new(1, 0, 64_000, SimTime::ZERO, true),
            FlowSpec::new(2, 0, 64_000, SimTime::ZERO, true),
            FlowSpec::new(3, 0, 64_000, SimTime::ZERO, true),
        ];
        let res = Engine::new(cfg, flows).run();
        assert!(res.agg.timeouts > 0, "the victim kept RTO-probing");
        assert_eq!(res.forensics.len() as u64, res.agg.timeouts);
        assert_eq!(res.agg.rto_causes.total(), res.agg.timeouts);
        let victim: Vec<_> = res.forensics.iter().filter(|r| r.flow == 1).collect();
        assert!(!victim.is_empty(), "severed flow produced forensics");
        for r in victim {
            assert_eq!(
                r.cause,
                RtoCause::LinkDown,
                "severed flow blames the wire, got {:?}",
                r.cause
            );
        }
    }

    #[test]
    fn metrics_registry_captures_queue_and_rto_counters() {
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(9));
        cfg.switch.buffer_bytes = 100_000;
        let flows: Vec<FlowSpec> = (1..9)
            .map(|s| FlowSpec::new(s, 0, 64_000, SimTime::ZERO, true))
            .collect();
        let mut eng = Engine::new(cfg, flows);
        eng.set_metrics();
        let res = eng.run();
        let reg = res.metrics.as_ref().expect("metrics enabled");
        // End-of-run counters mirror the aggregates.
        assert_eq!(reg.counter("timeouts"), res.agg.timeouts);
        assert_eq!(reg.counter("data_pkts_sent"), res.agg.data_pkts_sent);
        assert_eq!(reg.counter("drops_dt"), res.agg.drops_dt);
        let cause_sum: u64 = RtoCause::ALL
            .iter()
            .map(|c| reg.counter(&format!("rto_cause_{}", c.as_str())))
            .sum();
        assert_eq!(cause_sum, res.agg.timeouts, "metrics attribute every RTO");
        // The bottleneck egress (switch node 0, port 0) saw real occupancy.
        let q = reg.hist("port_queue_bytes/n0/p0").expect("queue histogram");
        assert!(q.max() > 0, "bottleneck queue never observed");
        assert_eq!(
            reg.gauge("port_queue_max/n0/p0"),
            q.max(),
            "watermark gauge matches histogram max"
        );
        // A run without metrics enabled carries none.
        assert!(Engine::new(
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(2)),
            vec![FlowSpec::new(0, 1, 10_000, SimTime::ZERO, true)],
        )
        .run()
        .metrics
        .is_none());
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

    #[test]
    fn permanent_link_down_drains_without_wedging() {
        // A flow whose only path is severed can never finish; the run must
        // still drain (bounded by max_time), the victim must not wedge the
        // loop, and completed flows must not leak armed timers.
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(4));
        cfg.max_time = SimTime::from_ms(50);
        // Host index 2 is node 3 (switch is node 0); down its NIC link.
        cfg.faults = faults::FaultSchedule::new().link_down(SimTime::from_us(50), 3, 0);
        let flows = vec![
            FlowSpec::new(1, 0, 64_000, SimTime::ZERO, true),
            FlowSpec::new(2, 0, 64_000, SimTime::ZERO, true),
            FlowSpec::new(3, 0, 64_000, SimTime::ZERO, true),
        ];
        let res = Engine::new(cfg, flows).run();
        assert!(res.flows[1].end.is_none(), "severed flow cannot complete");
        assert!(res.flows[0].end.is_some(), "bystander flow completes");
        assert!(res.flows[2].end.is_some(), "bystander flow completes");
        assert!(res.agg.down_drops > 0, "frames died on the dead wire");
        assert!(res.agg.timeouts > 0, "the victim kept RTO-probing");
        assert_eq!(res.agg.timers_leaked, 0, "no armed timers on done flows");
        assert_eq!(res.agg.faults_injected, 1);
        assert_eq!(res.agg.first_fault_at, SimTime::from_us(50));
    }

    #[test]
    fn short_flap_is_recovered_by_fast_retransmit() {
        // §5: TLT does not recover non-congestion losses — but a flap
        // shorter than the RTT only punches a hole in the stream, and the
        // transport's fast retransmit fills it without an RTO.
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
        // Host index 1 is node 2; 5 us flap mid-transfer (base RTT 40 us).
        cfg.faults = faults::FaultSchedule::new().link_flap(
            SimTime::from_us(200),
            2,
            0,
            SimTime::from_us(5),
        );
        let res = Engine::new(
            cfg,
            vec![FlowSpec::new(1, 0, 1_000_000, SimTime::ZERO, false)],
        )
        .run();
        assert!(res.flows[0].end.is_some(), "flow survives the flap");
        assert!(res.agg.down_drops > 0, "the flap destroyed frames");
        assert_eq!(res.agg.timeouts, 0, "recovery did not need an RTO");
        assert!(res.agg.fast_retx > 0, "fast retransmit repaired the hole");
        assert_eq!(res.agg.faults_injected, 2, "down + up both applied");
    }

    #[test]
    fn reroute_restores_a_cross_fabric_flow() {
        // Kill the exact ToR uplink the flow's ECMP hash pinned; with a
        // reroute delay the flow re-pins onto a surviving core and finishes.
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp);
        let topo = cfg.topology.build();
        let (src, dst) = (topo.hosts()[0], topo.hosts()[95]);
        // Flow index 0, so the engine's `index ^ seed` salt reduces to the seed.
        let hash = netsim::topology::Topology::ecmp_hash(src, dst, cfg.seed);
        let (fwd, _) = topo.pin_paths(src, dst, hash);
        let uplink = fwd[1]; // host -> [ToR] -> core -> ToR -> host
        let cfg = cfg.with_faults(faults::FaultSchedule::new().link_down_rerouted(
            SimTime::from_us(100),
            uplink.node.0,
            uplink.port.0,
            SimTime::from_us(100),
        ));
        let res = Engine::new(
            cfg,
            vec![FlowSpec::new(0, 95, 2_000_000, SimTime::ZERO, false)],
        )
        .run();
        assert!(
            res.flows[0].end.is_some(),
            "flow completes after re-pinning"
        );
        assert_eq!(res.agg.reroutes, 1, "exactly one flow re-pinned");
        assert!(res.agg.down_drops > 0, "in-flight frames were destroyed");
    }

    #[test]
    fn fault_on_an_idle_link_perturbs_nothing() {
        // Per-link isolation: a loss model on a link nothing crosses must
        // not change a single byte of the outcome (the old global WireFault
        // could not make this guarantee).
        let run = |faulty: bool| {
            let mut cfg =
                SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(4));
            if faulty {
                // Host index 3 is node 4 and carries no flows.
                cfg.faults = faults::FaultSchedule::new().degrade(
                    SimTime::ZERO,
                    4,
                    0,
                    faults::LossModel::Bernoulli { rate: 0.5 },
                    Some(0.25),
                );
            }
            let flows = vec![
                FlowSpec::new(1, 0, 200_000, SimTime::ZERO, true),
                FlowSpec::new(2, 0, 200_000, SimTime::ZERO, true),
            ];
            Engine::new(cfg, flows).run()
        };
        let clean = run(false);
        let faulty = run(true);
        for (a, b) in clean.flows.iter().zip(faulty.flows.iter()) {
            assert_eq!(a.end, b.end, "flow outcome changed by an idle fault");
        }
        assert_eq!(clean.agg.data_pkts_sent, faulty.agg.data_pkts_sent);
        assert_eq!(clean.agg.drops_dt, faulty.agg.drops_dt);
        assert_eq!(faulty.agg.wire_drops, 0, "idle loss model never drew");
        assert_eq!(faulty.agg.faults_injected, 1);
    }

    #[test]
    fn pause_storm_stalls_traffic_then_releases_it() {
        let mk = |storm: bool| {
            let mut cfg =
                SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
            if storm {
                // Switch (node 0) ingress 1 faces host index 1, the sender.
                cfg.faults = faults::FaultSchedule::new().pause_storm(
                    SimTime::from_us(100),
                    0,
                    1,
                    SimTime::from_us(300),
                );
            }
            Engine::new(
                cfg,
                vec![FlowSpec::new(1, 0, 1_000_000, SimTime::ZERO, false)],
            )
            .run()
        };
        let clean = mk(false);
        let stormy = mk(true);
        let fct_clean = clean.flows[0].fct().expect("clean run completes");
        let fct_storm = stormy.flows[0].fct().expect("stormy run completes");
        assert!(stormy.agg.pause_frames >= 1, "spurious XOFF was sent");
        assert!(stormy.agg.link_pause_fraction > 0.0);
        assert!(
            fct_storm >= fct_clean + SimTime::from_us(250),
            "storm stalled the flow: {fct_storm} vs {fct_clean}"
        );
        assert_eq!(stormy.agg.timeouts, 0, "300 us pause is below RTO_min");
    }

    /// The tentpole invariant, exercised end-to-end: across transports,
    /// TLT on/off, PFC, incast drops/RTOs, corruption, flaps, and pause
    /// storms, every completed flow's ledger must close exactly
    /// (`Σ phases == FCT`, zero unattributed time) and incomplete flows
    /// must carry no completion record.
    #[test]
    #[cfg(feature = "ledger")]
    fn latency_ledger_closes_over_the_fault_grid() {
        use telemetry::Phase;
        let audit = |res: &SimResult, label: &str| {
            let recs = res.ledger.as_ref().expect("ledger feature is on");
            assert_eq!(recs.len(), res.flows.len(), "{label}: one ledger per flow");
            for (rec, fr) in recs.iter().zip(res.flows.iter()) {
                assert_eq!(rec.end_ns, fr.end.map(|t| t.as_ns()), "{label}: end");
                match rec.residue() {
                    Some(r) => assert_eq!(
                        r,
                        0,
                        "{label}: flow {} residue {r} (phases {:?}, fct {:?})",
                        rec.flow,
                        rec.phases,
                        rec.fct_ns()
                    ),
                    None => assert!(fr.end.is_none(), "{label}: missing fct"),
                }
            }
        };

        // Incast overflow: drops, fast retx, and RTO stalls all present.
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(49));
        cfg.switch.buffer_bytes = 800_000;
        cfg.switch.ecn = netsim::switch::EcnConfig::Threshold { k: 100_000 };
        let flows: Vec<FlowSpec> = (1..49)
            .flat_map(|s| {
                [
                    FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true),
                    FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true),
                ]
            })
            .collect();
        let res = Engine::new(cfg, flows).run();
        assert!(res.agg.timeouts > 0, "incast must exercise the RTO phase");
        audit(&res, "incast");
        let recs = res.ledger.as_ref().unwrap();
        assert!(
            recs.iter().any(|r| r.phases.get(Phase::RtoStall) > 0),
            "some flow spent time in RTO stall"
        );
        assert!(
            recs.iter()
                .any(|r| r.stalls.iter().any(|s| s.phase == Phase::RtoStall)),
            "stall intervals retained for span trees"
        );

        // PFC pause pressure: the pause phase must both appear and conserve.
        let mut cfg = SimConfig::roce_family(TransportKind::DcqcnGbn)
            .with_topology(small_single_switch(5))
            .with_pfc();
        cfg.switch.buffer_bytes = 200_000;
        let flows: Vec<FlowSpec> = (1..5)
            .map(|s| FlowSpec::new(s, 0, 500_000, SimTime::ZERO, true))
            .collect();
        let res = Engine::new(cfg, flows).run();
        assert!(res.agg.pause_frames > 0, "PFC actually engaged");
        audit(&res, "pfc");
        assert!(
            res.ledger
                .as_ref()
                .unwrap()
                .iter()
                .any(|r| r.phases.get(Phase::PfcPause) > 0),
            "pause time attributed"
        );

        // Fault schedule: corruption + a flap + a pause storm + truncation.
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(4));
        cfg.max_time = SimTime::from_ms(50);
        cfg.wire_loss_rate = 0.005;
        cfg.faults = faults::FaultSchedule::new()
            .link_flap(SimTime::from_us(200), 2, 0, SimTime::from_us(5))
            .pause_storm(SimTime::from_us(400), 0, 1, SimTime::from_us(200))
            // Host index 2 is node 3: flow index 1 is severed mid-transfer.
            .link_down(SimTime::from_us(100), 3, 0);
        let flows = vec![
            FlowSpec::new(1, 0, 300_000, SimTime::ZERO, true),
            FlowSpec::new(2, 0, 300_000, SimTime::ZERO, true),
            FlowSpec::new(3, 0, 300_000, SimTime::ZERO, true),
        ];
        let res = Engine::new(cfg, flows).run();
        assert!(res.flows[1].end.is_none(), "severed flow truncated");
        audit(&res, "faults");

        // Dependent chains: rewritten start times stay conserved too.
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
        let flows = vec![
            FlowSpec::new(0, 1, 50_000, SimTime::ZERO, true),
            FlowSpec::new(1, 0, 100_000, SimTime::from_us(10), true).after(0),
        ];
        let res = Engine::new(cfg, flows).run();
        audit(&res, "deps");
        let recs = res.ledger.as_ref().unwrap();
        assert_eq!(
            recs[1].start_ns,
            res.flows[1].start.as_ns(),
            "dependent ledger opens at the rewritten absolute start"
        );
    }

    /// Determinism of the ledger itself: identical runs produce identical
    /// phase decompositions and stall rings.
    #[test]
    #[cfg(feature = "ledger")]
    fn latency_ledger_is_deterministic() {
        let mk = || {
            let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
                .with_topology(small_single_switch(9))
                .with_seed(7);
            cfg.switch.buffer_bytes = 100_000;
            let flows: Vec<FlowSpec> = (1..9)
                .map(|s| FlowSpec::new(s, 0, 60_000, SimTime::ZERO, true))
                .collect();
            Engine::new(cfg, flows).run()
        };
        let (a, b) = (mk(), mk());
        let (la, lb) = (a.ledger.unwrap(), b.ledger.unwrap());
        assert_eq!(la.len(), lb.len());
        for (x, y) in la.iter().zip(lb.iter()) {
            assert_eq!(x.phases, y.phases);
            assert_eq!(x.stalls, y.stalls);
            assert_eq!(x.end_ns, y.end_ns);
        }
    }

    /// White-box stepper for the lazy-`TxDone` tests: stands in for the run
    /// loop so a test can place a send at an exact `(time, seq)` queue
    /// position and look at the port and the event queue afterwards.
    struct Rig {
        eng: Engine,
        /// The sending host of flow 0.
        src: NodeId,
        /// Serialization time of one [`Rig::send`] frame, and the link's
        /// propagation delay (ns).
        tx: u64,
        delay: u64,
    }

    const RIG_FRAME: u32 = 1440;

    impl Rig {
        fn new() -> Rig {
            Rig::with_faults(faults::FaultSchedule::new())
        }

        fn with_faults(schedule: faults::FaultSchedule) -> Rig {
            let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
                .with_topology(small_single_switch(2))
                .with_faults(schedule);
            // The flows only lend their paths to the frames; their own
            // FlowStarts sit at the horizon and are never popped. Flow 1
            // runs the other way, so its ACKs leave by flow 0's NIC.
            let flows = [(0, 1), (1, 0)]
                .map(|(s, d)| FlowSpec::new(s, d, 1_000_000, SimTime::from_secs(1), false));
            let eng = Engine::new(cfg, flows.to_vec());
            let src = eng.flows[0].src;
            let spec = eng.ports[eng.port_index(src, PortId(0))].spec;
            let wire = Packet::data(FlowId(0), 0, RIG_FRAME).wire_size();
            Rig {
                tx: spec.tx_time(wire).as_ns(),
                delay: spec.delay.as_ns(),
                eng,
                src,
            }
        }

        /// Schedules a no-op event: a `(time, seq)` position to act from.
        fn mark(&mut self, at: u64) {
            self.eng
                .queue
                .schedule(SimTime::from_ns(at), Event::QueueSample);
        }

        /// Pops the next event and advances the clock, as the run loop does.
        fn pop(&mut self) -> (u64, Event) {
            let (t, ev) = self.eng.queue.pop().expect("an event is pending");
            self.eng.now = t;
            (t.as_ns(), ev)
        }

        /// Pops the next event, which must be a marker at `at`.
        fn pop_mark(&mut self, at: u64) {
            assert!(matches!(self.pop(), (t, Event::QueueSample) if t == at));
        }

        /// Pops the next event, which must be the NIC's `TxDone` at `at`,
        /// and executes it.
        fn pop_tx_done(&mut self, at: u64) {
            let (t, ev) = self.pop();
            let Event::TxDone { node, port } = ev else {
                panic!("expected a TxDone at {at}");
            };
            assert_eq!((t, node, port), (at, self.src, PortId(0)));
            self.eng.tx_done(node, port);
        }

        /// The source host's transport emits `n` frames at this instant.
        fn send(&mut self, n: u64) {
            for i in 0..n {
                let pkt = Packet::data(FlowId(0), i * u64::from(RIG_FRAME), RIG_FRAME);
                self.eng.actions.push(Action::Send(pkt));
            }
            self.eng.flush_actions(0);
        }

        fn nic(&self) -> Port {
            self.eng.ports[self.eng.port_index(self.src, PortId(0))]
        }

        fn waiting(&self) -> usize {
            self.eng.host_q[self.src.0 as usize].len()
        }

        /// `(queue pushes, seqs allocated)` so far.
        fn churn(&self) -> (u64, u64) {
            (self.eng.queue.scheduled_total(), self.eng.queue.seq_total())
        }

        /// Drains the queue down to the parked FlowStarts; returns the
        /// arrival times of every `Deliver` on the way.
        fn arrivals(&mut self) -> Vec<u64> {
            let mut out = Vec::new();
            while self.eng.queue.len() > self.eng.flows.len() {
                if let (t, Event::Deliver { .. }) = self.pop() {
                    out.push(t);
                }
            }
            out
        }
    }

    /// Same-nanosecond tie: a frame enqueued at exactly `free_at` sees the
    /// port busy iff the reserved `TxDone` seq is still ahead of the event
    /// doing the enqueue. Either way it departs at `free_at`, as in the
    /// eager engine — but *from which event* decides every seq allocated
    /// downstream, so the two sides must not be confused.
    #[test]
    fn lazy_tx_done_breaks_free_at_ties_on_the_reserved_seq() {
        for above in [false, true] {
            let mut r = Rig::new();
            let (t0, tx, delay) = (1_000, r.tx, r.delay);
            r.mark(t0);
            // Scheduled before frame A reserves its `TxDone` seq: "below".
            r.mark(t0 + tx);
            r.pop_mark(t0);
            r.send(1);
            let a = r.nic();
            assert!(a.busy && !a.tx_done_queued, "a lone frame pushes no TxDone");
            assert_eq!(a.free_at, SimTime::from_ns(t0 + tx));
            // Scheduled after: "above".
            r.mark(t0 + tx);
            r.pop_mark(t0 + tx);
            assert!(r.eng.queue.last_popped_seq() < a.free_seq);
            if above {
                r.pop_mark(t0 + tx);
                assert!(r.eng.queue.last_popped_seq() > a.free_seq);
            }
            let before = r.churn();
            r.send(1);
            if above {
                // The virtual TxDone already fired: B leaves on the spot.
                assert_eq!(r.waiting(), 0);
                assert_eq!(r.churn(), (before.0 + 1, before.1 + 2), "Deliver only");
            } else {
                // Still busy: B waits, and the TxDone is materialized in
                // its reserved slot — ahead of the "above" marker that was
                // scheduled (and so pushed) before it.
                assert_eq!(r.waiting(), 1);
                assert!(r.nic().tx_done_queued);
                assert_eq!(r.churn(), (before.0 + 1, before.1), "TxDone only");
                r.pop_tx_done(t0 + tx);
                assert_eq!(r.waiting(), 0);
                r.pop_mark(t0 + tx);
            }
            let b = r.nic();
            assert!(b.busy && !b.tx_done_queued);
            assert_eq!(
                b.free_at,
                SimTime::from_ns(t0 + 2 * tx),
                "B left at free_at"
            );
            assert_eq!(r.arrivals(), [t0 + tx + delay, t0 + 2 * tx + delay]);
        }
    }

    /// Host NIC: a lone send pushes no `TxDone`; a burst materializes the
    /// first frame's `TxDone` when the second queues up behind it, then
    /// pushes eagerly for as long as a backlog remains. Departures are
    /// back-to-back at line rate, exactly the eager engine's.
    #[test]
    fn lazy_tx_done_pushes_only_behind_a_backlog() {
        let mut r = Rig::new();
        let (tx, delay) = (r.tx, r.delay);
        // A lone send, then another after the virtual TxDone has passed.
        for t in [1_000, 1_000 + 10 * tx] {
            r.mark(t);
            r.pop_mark(t);
            let before = r.churn();
            r.send(1);
            assert_eq!(r.churn(), (before.0 + 1, before.1 + 2), "Deliver only");
            let ps = r.nic();
            assert!(ps.busy && !ps.tx_done_queued);
            assert_eq!(ps.free_at, SimTime::from_ns(t + tx), "left at once");
        }
        assert_eq!(r.arrivals(), [1_000 + tx + delay, 1_000 + 11 * tx + delay]);
        // A burst of three in one transport callback.
        let t = 100_000;
        r.mark(t);
        r.pop_mark(t);
        let before = r.churn();
        r.send(3);
        // Frame 1 left (Deliver); frame 2 materialized frame 1's TxDone;
        // frame 3 found it queued.
        assert_eq!(r.churn(), (before.0 + 2, before.1 + 2));
        assert_eq!(r.waiting(), 2);
        // Frame 2 leaves with frame 3 behind it: eager push.
        let before = r.churn();
        r.pop_tx_done(t + tx);
        assert_eq!(r.churn(), (before.0 + 2, before.1 + 2), "TxDone + Deliver");
        assert!(r.nic().tx_done_queued);
        // Frame 3 leaves an empty queue: lazy again.
        let before = r.churn();
        r.pop_tx_done(t + 2 * tx);
        assert_eq!(r.churn(), (before.0 + 1, before.1 + 2), "Deliver only");
        let ps = r.nic();
        assert!(ps.busy && !ps.tx_done_queued);
        assert_eq!(ps.free_at, SimTime::from_ns(t + 3 * tx));
        let due = [1, 2, 3].map(|k| t + k * tx + delay);
        assert_eq!(r.arrivals(), due);
    }

    /// PFC against a lazily busy port, through the real run loop: host
    /// index 1 sends a lone frame at 20 us, a pause storm reaches its NIC
    /// mid-serialization (empty queue, no `TxDone` queued), and a second
    /// frame is enqueued under the pause. It must leave when the eager
    /// engine would release it: at `free_at` if the resume came first, at
    /// the resume otherwise — including when the virtual `TxDone` passed
    /// unseen while the port was paused.
    #[test]
    fn lazy_tx_done_under_pfc_pause_keeps_eager_departure_times() {
        use telemetry::RingSink;
        const START: u64 = 20_000;
        const XOFF_AT_SWITCH: u64 = 10_100;
        // Arrival times at the switch of the two flows' data frames, and
        // when the NIC was paused / resumed.
        let run = |second_start: u64, storm: u64| {
            let mut cfg =
                SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
            cfg.faults = faults::FaultSchedule::new().pause_storm(
                SimTime::from_ns(XOFF_AT_SWITCH),
                0,
                1,
                SimTime::from_ns(storm),
            );
            let flows = [START, second_start]
                .map(|at| FlowSpec::new(1, 0, u64::from(RIG_FRAME), SimTime::from_ns(at), true));
            let mut eng = Engine::new(cfg, flows.to_vec());
            let (tracer, sink) = Tracer::new(RingSink::new(1 << 12));
            eng.set_tracer(tracer);
            let res = eng.run();
            assert!(res.flows.iter().all(|f| f.end.is_some()));
            assert_eq!(res.agg.timeouts, 0);
            let sink = sink.borrow();
            let at = |want: &dyn Fn(&TraceEvent) -> bool| {
                let mut hits = sink.events().filter(|(_, ev)| want(ev));
                let t = hits.next().expect("event traced").0.as_ns();
                assert!(hits.next().is_none(), "traced exactly once");
                t
            };
            // A flow's data frame reaching the switch (egress 0 faces the
            // receiver; ACKs go out the other way).
            let arrival = |f: u32| {
                at(&move |ev| match ev {
                    TraceEvent::Enqueue {
                        node, port, flow, ..
                    } => (*node, *port, *flow) == (0, 0, f),
                    _ => false,
                })
            };
            let paused = at(&|ev| matches!(ev, TraceEvent::LinkPause { node: 2, port: 0 }));
            let resumed = at(&|ev| matches!(ev, TraceEvent::LinkResume { node: 2, port: 0 }));
            (arrival(0), arrival(1), paused, resumed)
        };
        let rig = Rig::new();
        let (tx, delay) = (rig.tx, rig.delay);
        let free_at = START + tx;
        let pause_at = XOFF_AT_SWITCH + delay;
        assert!(
            START < pause_at && pause_at + 50 < free_at,
            "pause lands mid-frame"
        );

        // Resume before free_at: the frame waits for the (materialized)
        // TxDone and leaves at free_at.
        let (a0, a1, paused, resumed) = run(pause_at + 20, 50);
        assert_eq!((paused, resumed), (pause_at, pause_at + 50));
        assert_eq!((a0, a1), (free_at + delay, free_at + tx + delay));

        // Resume after free_at: the TxDone pops into a paused port; the
        // resume releases the frame.
        let (a0, a1, _, resumed) = run(pause_at + 20, 5_000);
        assert_eq!(resumed, pause_at + 5_000);
        assert_eq!((a0, a1), (free_at + delay, resumed + tx + delay));

        // Enqueued under the pause but after free_at: the virtual TxDone
        // never materialized and the port is found idle-but-paused.
        let (a0, a1, _, resumed) = run(free_at + 700, 5_000);
        assert_eq!((a0, a1), (free_at + delay, resumed + tx + delay));
    }

    /// The serialization-time memo: data and ACK frames of two sizes share
    /// one NIC, in runs and alternating, so the one-entry memo both hits and
    /// misses; then a `Degrade` slows the link to 0.4 of its rate. Every
    /// frame must reach the switch when the closed forms say —
    /// `LinkSpec::tx_time` before the fault, `FaultState::tx_time`'s ceiling
    /// after it (the memo still holds the nominal time of the very size sent
    /// next).
    #[test]
    fn tx_time_memo_matches_the_closed_forms_across_a_degrade() {
        const FACTOR: f64 = 0.4;
        const DEGRADE_AT: u64 = 50_000;
        // Host index 0 is node 1 (the switch is node 0).
        let mut r = Rig::with_faults(faults::FaultSchedule::new().degrade(
            SimTime::from_ns(DEGRADE_AT),
            1,
            0,
            faults::LossModel::None,
            Some(FACTOR),
        ));
        assert_eq!(r.src, NodeId(1));
        let spec = r.nic().spec;
        let data = || Packet::data(FlowId(0), 0, RIG_FRAME);
        let ack = || Packet::ack(FlowId(1), 0);
        let burst = |r: &mut Rig, t0: u64, tx_of: &dyn Fn(u32) -> u64| {
            r.mark(t0);
            r.pop_mark(t0);
            let frames = [data(), ack(), ack(), data(), data(), ack(), data()];
            let mut due = Vec::new();
            let mut free_at = t0;
            for pkt in frames {
                free_at += tx_of(pkt.wire_size());
                due.push(free_at + r.delay);
                // Flow 1's ACKs travel `Rev`, i.e. out of flow 0's source.
                let flow = pkt.flow.0;
                r.eng.actions.push(Action::Send(pkt));
                r.eng.flush_actions(flow);
            }
            due
        };
        let nominal = |wire: u32| spec.tx_time(wire).as_ns();
        let mut due = burst(&mut r, 1_000, &nominal);
        assert!(r.eng.faults.is_quiet());
        assert_ne!(nominal(data().wire_size()), nominal(ack().wire_size()));

        // Serve the NIC queue up to the fault, apply it, send again.
        let mut got = Vec::new();
        loop {
            match r.pop() {
                (t, Event::Deliver { .. }) => got.push(t),
                (_, Event::TxDone { node, port }) => r.eng.tx_done(node, port),
                (t, Event::Fault(i)) => {
                    assert_eq!(t, DEGRADE_AT);
                    r.eng.apply_fault(i as usize);
                    break;
                }
                _ => panic!("unexpected event"),
            }
        }
        assert!(!r.eng.faults.is_quiet());
        assert_eq!(
            r.nic().memo_wire,
            data().wire_size(),
            "memo holds the next size"
        );
        let degraded = |wire: u32| ((nominal(wire) as f64 / FACTOR).ceil() as u64).max(1);
        assert!(degraded(data().wire_size()) > 2 * nominal(data().wire_size()));
        due.extend(burst(&mut r, 100_000, &degraded));
        while r.eng.queue.len() > r.eng.flows.len() {
            match r.pop() {
                (t, Event::Deliver { .. }) => got.push(t),
                (_, Event::TxDone { node, port }) => r.eng.tx_done(node, port),
                _ => panic!("unexpected event"),
            }
        }
        assert_eq!(got, due);
    }

    fn two_speed_specs() -> [netsim::topology::TopologySpec; 4] {
        use netsim::topology::TopologySpec;
        let fast = LinkSpec::new(40_000_000_000, SimTime::from_us(10));
        let slow = LinkSpec::new(10_000_000_000, SimTime::from_us(3));
        [
            TopologySpec::SingleSwitch {
                hosts: 3,
                host_link: fast,
            },
            TopologySpec::Dumbbell {
                left_hosts: 2,
                right_hosts: 3,
                host_link: fast,
                cross_link: slow,
            },
            TopologySpec::LeafSpine {
                cores: 2,
                tors: 3,
                hosts_per_tor: 2,
                host_link: fast,
                fabric_link: slow,
            },
            TopologySpec::FatTree {
                k: 4,
                host_link: fast,
                fabric_link: slow,
            },
        ]
    }

    /// The port table against its source, on every topology shape (with
    /// two link speeds where the shape has two kinds of link): each record
    /// carries its port's link, peer, rate and delay, the incoming link is
    /// `lid ^ 1`, and the hot record fits a cache line.
    #[test]
    fn port_table_mirrors_the_topology() {
        assert!(
            std::mem::size_of::<Port>() <= 64,
            "hot port record is {} bytes",
            std::mem::size_of::<Port>()
        );
        for spec in two_speed_specs() {
            let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(spec);
            let eng = Engine::new(cfg, vec![FlowSpec::new(0, 1, 1_000, SimTime::ZERO, true)]);
            eng.check_port_table();
            for (i, rec) in eng.ports.iter().enumerate() {
                // Peers point at each other.
                let back = eng.ports[eng.port_index(rec.peer.0, rec.peer.1)];
                assert_eq!(eng.port_index(back.peer.0, back.peer.1), i);
                assert_eq!(back.lid, rec.in_link());
            }
        }
    }

    /// INT hops carry the capacity of the egress they left by: on fabrics
    /// whose links differ in speed every switch port must stamp its own
    /// link's rate, not port 0's.
    #[test]
    fn int_hops_report_each_egress_ports_own_rate() {
        for spec in two_speed_specs() {
            let cfg = SimConfig::roce_family(TransportKind::Hpcc).with_topology(spec);
            let mut eng = Engine::new(cfg, vec![FlowSpec::new(0, 1, 1_000, SimTime::ZERO, true)]);
            let mut rates = std::collections::BTreeSet::new();
            for n in 0..eng.switches.len() {
                let Some(sw) = eng.switches[n].as_mut() else {
                    continue;
                };
                for p in 0..sw.config().ports {
                    let egress = PortId(p as u32);
                    let pkt = eng.pkts.insert(Packet::data(FlowId(0), 0, 1_000));
                    let out = sw.enqueue(pkt, &mut eng.pkts, PortId(0), egress, SimTime::ZERO);
                    assert!(out.enqueued);
                    let (pkt, _) = sw.dequeue(&mut eng.pkts, egress, SimTime::ZERO);
                    let hop = eng.pkts.take(pkt.expect("just enqueued")).int_stack[0];
                    let link = eng.topo.link_from(NodeId(n as u32), egress).1.spec;
                    assert_eq!(hop.rate_bps, link.bandwidth_bps, "node {n} port {p}");
                    rates.insert(hop.rate_bps);
                }
            }
            let two_speeds = !matches!(
                eng.cfg.topology,
                netsim::topology::TopologySpec::SingleSwitch { .. }
            );
            assert_eq!(rates.len(), 1 + usize::from(two_speeds));
        }
    }

    /// Quiet ≡ not quiet. A fault schedule holding only a no-op (bringing
    /// up a link that is up, or degrading one with no loss model and no
    /// rate factor) clears `FaultState`'s quiet flag, so every later frame
    /// takes the per-link table lookups and the memo is bypassed — and the
    /// run must not differ from the fault-free one in anything but the
    /// fault bookkeeping and the one extra scheduled event. Checked on a
    /// lossy DCTCP incast (drops, RTOs, forensics) and a PFC cell (pauses).
    #[test]
    fn noop_fault_changes_nothing_but_its_own_bookkeeping() {
        use faults::{FaultAction, FaultEvent, FaultSchedule, LossModel};
        // Host index 1 is node 2: a sender's NIC, busy in both cells.
        let link_up = || {
            let mut s = FaultSchedule::new();
            s.push(FaultEvent {
                at: SimTime::ZERO,
                node: NodeId(2),
                port: PortId(0),
                action: FaultAction::LinkUp,
            });
            s
        };
        let degrade = || FaultSchedule::new().degrade(SimTime::ZERO, 2, 0, LossModel::None, None);
        let lossy = |faults: FaultSchedule| {
            // The synchronized short-flow incast of the tests above.
            let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
                .with_topology(small_single_switch(49))
                .with_faults(faults);
            cfg.switch.buffer_bytes = 800_000;
            cfg.switch.ecn = netsim::switch::EcnConfig::Threshold { k: 100_000 };
            let flows: Vec<FlowSpec> = (1..49)
                .flat_map(|s| [FlowSpec::new(s, 0, 8_000, SimTime::from_us(1), true); 2])
                .collect();
            let mut eng = Engine::new(cfg, flows);
            eng.set_metrics();
            let res = eng.run();
            assert!(res.agg.timeouts > 0 && res.agg.drops_dt > 0);
            res
        };
        let pfc = |faults: FaultSchedule| {
            let mut cfg = SimConfig::tcp_family(TransportKind::Tcp)
                .with_topology(small_single_switch(5))
                .with_pfc()
                .with_faults(faults);
            cfg.switch.buffer_bytes = 1_000_000;
            let flows: Vec<FlowSpec> = (1..5)
                .map(|s| FlowSpec::new(s, 0, 1_000_000, SimTime::from_us(1), true))
                .collect();
            let mut eng = Engine::new(cfg, flows);
            eng.set_metrics();
            let res = eng.run();
            assert!(res.agg.pause_frames > 0 && res.agg.link_pause_fraction > 0.0);
            res
        };
        type Cell<'a> = &'a dyn Fn(FaultSchedule) -> SimResult;
        let cells: [(&str, Cell); 2] = [("lossy", &lossy), ("pfc", &pfc)];
        for (label, cell) in cells {
            let clean = cell(FaultSchedule::new());
            for (what, schedule) in [("link_up", link_up()), ("degrade", degrade())] {
                let noop = cell(schedule);
                let label = format!("{label}/{what}");
                let rows = |r: &SimResult| -> Vec<_> {
                    r.flows
                        .iter()
                        .map(|f| (f.start, f.end, f.timeouts, f.retx))
                        .collect()
                };
                assert_eq!(rows(&clean), rows(&noop), "{label}: flow records");
                assert_eq!(clean.forensics, noop.forensics, "{label}: forensics");
                assert_eq!(noop.agg.faults_injected, 1, "{label}");
                assert_eq!(
                    noop.agg.events_scheduled,
                    clean.agg.events_scheduled + 1,
                    "{label}: the fault is the one extra event"
                );
                // Everything else in the aggregate, samples included.
                let mut agg = noop.agg.clone();
                agg.faults_injected = clean.agg.faults_injected;
                agg.first_fault_at = clean.agg.first_fault_at;
                agg.events_scheduled = clean.agg.events_scheduled;
                assert_eq!(format!("{agg:?}"), format!("{:?}", clean.agg), "{label}");
                // Per-port histograms and watermarks; `events_scheduled`
                // is the one counter that may differ.
                let metrics = |r: &SimResult| {
                    let mut reg = r.metrics.clone().expect("metrics enabled");
                    reg.inc("events_scheduled", u64::MAX - r.agg.events_scheduled);
                    reg.to_json()
                };
                assert_eq!(metrics(&clean), metrics(&noop), "{label}: metrics");
            }
        }
    }

    #[test]
    fn base_rtt_matches_paper() {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp);
        let eng = Engine::new(cfg, vec![FlowSpec::new(0, 1, 1000, SimTime::ZERO, false)]);
        assert_eq!(eng.base_rtt(), SimTime::from_us(80));
        assert_eq!(eng.bdp(), 400_000);
    }
}
