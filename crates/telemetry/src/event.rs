//! The trace event schema and its JSONL codec.
//!
//! Every event serializes to one JSON object per line with a shared shape:
//! `{"t":<ns>,"ev":"<tag>", ...fields}`. All numeric fields are unsigned
//! integers (never floats), so a deterministic simulation produces a
//! byte-identical trace — the property the determinism tests pin. Lines
//! are written by hand into one reused buffer and read back through
//! [`crate::json::Cursor`].

use std::borrow::Cow;

use eventsim::SimTime;

use crate::json::{self, Cursor};

/// Why a packet was dropped, as recorded in [`TraceEvent::Drop`].
///
/// Mirrors `netsim`'s switch drop reasons plus the engine's wire-corruption
/// loss; kept as a separate enum so this crate stays dependency-free of the
/// network substrate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DropWhy {
    /// Red packet proactively dropped at the color-aware threshold (§4.1).
    Color,
    /// Dynamic-threshold (congestion) drop.
    Dynamic,
    /// Shared-buffer exhaustion drop.
    Overflow,
    /// Non-congestion wire corruption loss (§5: outside TLT's scope).
    Wire,
    /// Destroyed on a failed (administratively down) link — while
    /// serializing onto it, already in flight across it, or orphaned by a
    /// path re-pin after the failure.
    LinkDown,
}

impl DropWhy {
    /// Stable wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            DropWhy::Color => "color",
            DropWhy::Dynamic => "dt",
            DropWhy::Overflow => "overflow",
            DropWhy::Wire => "wire",
            DropWhy::LinkDown => "down",
        }
    }

    /// Parses a wire tag.
    pub fn parse(s: &str) -> Option<DropWhy> {
        Some(match s {
            "color" => DropWhy::Color,
            "dt" => DropWhy::Dynamic,
            "overflow" => DropWhy::Overflow,
            "wire" => DropWhy::Wire,
            "down" => DropWhy::LinkDown,
            _ => return None,
        })
    }
}

/// Root cause the engine's forensics pass attributed to a retransmission
/// timeout ([`TraceEvent::RtoForensic`]).
///
/// The first five variants mirror [`DropWhy`]: the RTO traces back to a
/// concrete lost packet with that drop reason. `PfcStall` means no loss was
/// found but the flow's path was PFC-paused while the timer ran; `AckLoss`
/// means only reverse-direction (ACK/NACK/CNP) losses were found; `Delay`
/// means the connection never lost a single frame — the outstanding data
/// (or its ACK) is still in the network and the timeout is spurious, the
/// RTT having outgrown the computed RTO (the paper's Figure 1 regime);
/// `Unknown` means the forensics ring held losses but none explain this
/// timeout.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum RtoCause {
    /// Root cause: a color-aware threshold drop of an unimportant packet.
    Color,
    /// Root cause: a dynamic-threshold (congestion) drop.
    Dynamic,
    /// Root cause: a shared-buffer exhaustion drop.
    Overflow,
    /// Root cause: a non-congestion wire corruption loss.
    Wire,
    /// Root cause: a frame destroyed on a failed (down) link.
    LinkDown,
    /// No loss found, but the flow's path was PFC-paused during the timer.
    PfcStall,
    /// Only reverse-direction (control) losses explain the timeout.
    AckLoss,
    /// No frame of this connection was ever lost: a spurious, queueing
    /// delay-induced timeout (RTT exceeded the computed RTO).
    Delay,
    /// The forensics ring held no explanation.
    Unknown,
}

impl RtoCause {
    /// Every cause, in wire-tag order (fixed for deterministic iteration).
    pub const ALL: [RtoCause; 9] = [
        RtoCause::Color,
        RtoCause::Dynamic,
        RtoCause::Overflow,
        RtoCause::Wire,
        RtoCause::LinkDown,
        RtoCause::PfcStall,
        RtoCause::AckLoss,
        RtoCause::Delay,
        RtoCause::Unknown,
    ];

    /// Stable wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            RtoCause::Color => "color",
            RtoCause::Dynamic => "dt",
            RtoCause::Overflow => "overflow",
            RtoCause::Wire => "wire",
            RtoCause::LinkDown => "down",
            RtoCause::PfcStall => "pfc",
            RtoCause::AckLoss => "ack",
            RtoCause::Delay => "delay",
            RtoCause::Unknown => "unknown",
        }
    }

    /// Parses a wire tag.
    pub fn parse(s: &str) -> Option<RtoCause> {
        Some(match s {
            "color" => RtoCause::Color,
            "dt" => RtoCause::Dynamic,
            "overflow" => RtoCause::Overflow,
            "wire" => RtoCause::Wire,
            "down" => RtoCause::LinkDown,
            "pfc" => RtoCause::PfcStall,
            "ack" => RtoCause::AckLoss,
            "delay" => RtoCause::Delay,
            "unknown" => RtoCause::Unknown,
            _ => return None,
        })
    }

    /// The cause implied by a concrete packet drop.
    pub fn from_drop(why: DropWhy) -> RtoCause {
        match why {
            DropWhy::Color => RtoCause::Color,
            DropWhy::Dynamic => RtoCause::Dynamic,
            DropWhy::Overflow => RtoCause::Overflow,
            DropWhy::Wire => RtoCause::Wire,
            DropWhy::LinkDown => RtoCause::LinkDown,
        }
    }
}

/// Per-cause RTO counters (the `rto_cause_*` breakdown), shared between the
/// engine's aggregate stats and the [`TraceEvent::RunEnd`] declaration so an
/// inspector can cross-check the trace against the run.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct RtoCauseCounts {
    counts: [u64; RtoCause::ALL.len()],
}

impl RtoCauseCounts {
    fn slot(cause: RtoCause) -> usize {
        match cause {
            RtoCause::Color => 0,
            RtoCause::Dynamic => 1,
            RtoCause::Overflow => 2,
            RtoCause::Wire => 3,
            RtoCause::LinkDown => 4,
            RtoCause::PfcStall => 5,
            RtoCause::AckLoss => 6,
            RtoCause::Delay => 7,
            RtoCause::Unknown => 8,
        }
    }

    /// Records one attributed RTO.
    pub fn bump(&mut self, cause: RtoCause) {
        self.add(cause, 1);
    }

    /// Records `n` RTOs attributed to `cause`.
    pub fn add(&mut self, cause: RtoCause, n: u64) {
        self.counts[RtoCauseCounts::slot(cause)] += n;
    }

    /// The count attributed to `cause`.
    pub fn get(&self, cause: RtoCause) -> u64 {
        self.counts[RtoCauseCounts::slot(cause)]
    }

    /// Sum over every cause — must equal the run's total RTO count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// RTOs with a concrete (non-`Unknown`) root cause.
    pub fn known(&self) -> u64 {
        self.total() - self.get(RtoCause::Unknown)
    }

    /// Element-wise sum (deterministic multi-run merging).
    pub fn merge(&mut self, other: &RtoCauseCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// `(cause, count)` pairs in fixed [`RtoCause::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (RtoCause, u64)> + '_ {
        RtoCause::ALL.iter().map(|&c| (c, self.get(c)))
    }
}

/// One phase of the latency ledger's per-flow time decomposition.
///
/// Every completed flow's wall time (`FCT`) splits exactly into these seven
/// phases — the conservation invariant `Σ phases == FCT` is closed by
/// construction and `debug_assert`ed under `strict-invariants`. The first
/// five describe where a delivered packet's journey time went; the last two
/// are recovery modes during which the whole flow timeline is attributed to
/// loss recovery rather than to individual packet journeys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Phase {
    /// Transmitting bits onto a link (`wire_size / rate`), summed per hop.
    Serialization,
    /// Speed-of-light flight time across links, summed per hop.
    Propagation,
    /// Waiting in a switch egress FIFO behind other frames.
    SwitchQueue,
    /// Waiting at the host — pacing/window gating in the source queue, plus
    /// gaps where nothing of this flow was in flight.
    HostWait,
    /// Egress blocked by a PFC pause (at the host NIC or a switch port).
    PfcPause,
    /// In fast-retransmit recovery (dup-ACK/SACK-driven, no timer fired).
    FastRecovery,
    /// Stalled waiting for a retransmission timer (the paper's target).
    RtoStall,
}

impl Phase {
    /// Every phase, in wire-tag order (fixed for deterministic iteration).
    pub const ALL: [Phase; 7] = [
        Phase::Serialization,
        Phase::Propagation,
        Phase::SwitchQueue,
        Phase::HostWait,
        Phase::PfcPause,
        Phase::FastRecovery,
        Phase::RtoStall,
    ];

    /// Stable wire tag (also the `span_phase_ns/` key suffix).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Serialization => "serialization",
            Phase::Propagation => "propagation",
            Phase::SwitchQueue => "switch_queue",
            Phase::HostWait => "host_wait",
            Phase::PfcPause => "pfc_pause",
            Phase::FastRecovery => "fast_recovery",
            Phase::RtoStall => "rto_stall",
        }
    }

    /// Parses a wire tag.
    pub fn parse(s: &str) -> Option<Phase> {
        Some(match s {
            "serialization" => Phase::Serialization,
            "propagation" => Phase::Propagation,
            "switch_queue" => Phase::SwitchQueue,
            "host_wait" => Phase::HostWait,
            "pfc_pause" => Phase::PfcPause,
            "fast_recovery" => Phase::FastRecovery,
            "rto_stall" => Phase::RtoStall,
            _ => return None,
        })
    }
}

/// Per-phase accumulated nanoseconds — one flow's (or one scheme's) latency
/// ledger row. Field order is [`Phase::ALL`] order, so iteration, merge,
/// and serialization are deterministic.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct PhaseTimes {
    ns: [u64; Phase::ALL.len()],
}

impl PhaseTimes {
    fn slot(phase: Phase) -> usize {
        match phase {
            Phase::Serialization => 0,
            Phase::Propagation => 1,
            Phase::SwitchQueue => 2,
            Phase::HostWait => 3,
            Phase::PfcPause => 4,
            Phase::FastRecovery => 5,
            Phase::RtoStall => 6,
        }
    }

    /// Attributes `ns` nanoseconds to `phase`.
    pub fn add(&mut self, phase: Phase, ns: u64) {
        self.ns[PhaseTimes::slot(phase)] += ns;
    }

    /// Nanoseconds attributed to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.ns[PhaseTimes::slot(phase)]
    }

    /// Sum over every phase — equals the flow's FCT when conservation holds.
    pub fn total(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The phase holding the largest share; ties break toward the earlier
    /// [`Phase::ALL`] entry (deterministic).
    pub fn dominant(&self) -> Phase {
        let mut best = Phase::ALL[0];
        for &p in &Phase::ALL[1..] {
            if self.get(p) > self.get(best) {
                best = p;
            }
        }
        best
    }

    /// Element-wise sum (deterministic multi-flow/multi-run merging).
    pub fn merge(&mut self, other: &PhaseTimes) {
        for (a, b) in self.ns.iter_mut().zip(other.ns.iter()) {
            *a += b;
        }
    }

    /// `(phase, ns)` pairs in fixed [`Phase::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.iter().map(|&p| (p, self.get(p)))
    }
}

/// What kind of injected fault a [`TraceEvent::Fault`] records.
///
/// Mirrors the `faults` crate's schedule actions without depending on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// A link went down (both directions).
    LinkDown,
    /// A link came back up.
    LinkUp,
    /// A directed link's loss model / rate was overridden.
    Degrade,
    /// A spurious PFC pause storm started against a switch ingress.
    StormStart,
    /// A pause storm ended.
    StormEnd,
}

impl FaultKind {
    /// Stable wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::LinkDown => "link_down",
            FaultKind::LinkUp => "link_up",
            FaultKind::Degrade => "degrade",
            FaultKind::StormStart => "storm_start",
            FaultKind::StormEnd => "storm_end",
        }
    }

    /// Parses a wire tag.
    pub fn parse(s: &str) -> Option<FaultKind> {
        Some(match s {
            "link_down" => FaultKind::LinkDown,
            "link_up" => FaultKind::LinkUp,
            "degrade" => FaultKind::Degrade,
            "storm_start" => FaultKind::StormStart,
            "storm_end" => FaultKind::StormEnd,
            _ => return None,
        })
    }
}

/// Logical transport timer identity, as recorded in timer events.
///
/// Mirrors `transport::TimerKind` without depending on the transport crate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerId {
    /// Retransmission timeout.
    Rto,
    /// Tail loss probe.
    Tlp,
    /// Pacing tick.
    Pace,
    /// DCQCN α-decay timer.
    DcqcnAlpha,
    /// DCQCN rate-increase timer.
    DcqcnIncrease,
}

impl TimerId {
    /// Stable wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            TimerId::Rto => "rto",
            TimerId::Tlp => "tlp",
            TimerId::Pace => "pace",
            TimerId::DcqcnAlpha => "alpha",
            TimerId::DcqcnIncrease => "incr",
        }
    }

    /// Parses a wire tag.
    pub fn parse(s: &str) -> Option<TimerId> {
        Some(match s {
            "rto" => TimerId::Rto,
            "tlp" => TimerId::Tlp,
            "pace" => TimerId::Pace,
            "alpha" => TimerId::DcqcnAlpha,
            "incr" => TimerId::DcqcnIncrease,
            _ => return None,
        })
    }
}

/// One structured event in the packet/flow lifecycle.
///
/// `node`/`port` identify a switch and one of its egress (or, for PFC
/// events, ingress) ports; `flow` is the flow index the engine assigned;
/// `seq` is the first payload byte of the packet involved; `qlen` is the
/// egress queue depth in bytes *after* the event took effect.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceEvent {
    /// Start-of-run marker written by the harness (label + seed).
    RunStart {
        /// Scheme/figure label, e.g. `"fig09/dctcp+tlt"`.
        label: String,
        /// RNG seed of the run.
        seed: u64,
    },
    /// End-of-run marker carrying the producer's aggregate totals, so an
    /// inspector can verify the trace against the run without side channels.
    RunEnd {
        /// Color-threshold drops summed over all switches.
        drops_color: u64,
        /// Dynamic-threshold drops summed over all switches.
        drops_dt: u64,
        /// Buffer-overflow drops summed over all switches.
        drops_overflow: u64,
        /// Wire-corruption losses.
        wire_drops: u64,
        /// Frames destroyed on failed (down) links.
        down_drops: u64,
        /// PFC PAUSE frames emitted.
        pause_frames: u64,
        /// Retransmission timeouts taken by all flows.
        timeouts: u64,
        /// Per-cause RTO attribution (must sum to `timeouts`).
        rto_causes: RtoCauseCounts,
    },
    /// A flow began transmitting.
    FlowStart {
        /// Flow index.
        flow: u32,
        /// Payload bytes the flow will carry.
        bytes: u64,
    },
    /// A flow's receiver saw the final payload byte.
    FlowEnd {
        /// Flow index.
        flow: u32,
    },
    /// A packet was admitted to a switch egress queue.
    Enqueue {
        /// Switch node id.
        node: u32,
        /// Egress port.
        port: u32,
        /// Flow index.
        flow: u32,
        /// First payload byte (or ACK number for control packets).
        seq: u64,
        /// Egress queue depth after admission (bytes).
        qlen: u64,
    },
    /// A packet left a switch egress queue.
    Dequeue {
        /// Switch node id.
        node: u32,
        /// Egress port.
        port: u32,
        /// Flow index.
        flow: u32,
        /// First payload byte (or ACK number for control packets).
        seq: u64,
        /// Egress queue depth after removal (bytes).
        qlen: u64,
    },
    /// A packet was dropped, with a typed reason.
    Drop {
        /// Switch node id (for `Wire`: the transmitting node, which may be a
        /// host).
        node: u32,
        /// Egress port the packet was headed for.
        port: u32,
        /// Flow index.
        flow: u32,
        /// First payload byte.
        seq: u64,
        /// Typed drop reason.
        why: DropWhy,
        /// Whether the victim was a green (important) data packet.
        green: bool,
    },
    /// A packet was CE-marked on admission.
    CeMark {
        /// Switch node id.
        node: u32,
        /// Egress port.
        port: u32,
        /// Flow index.
        flow: u32,
        /// First payload byte.
        seq: u64,
        /// Egress queue depth that triggered the mark (bytes).
        qlen: u64,
    },
    /// A sender decided a data packet's TLT importance (§5 marking).
    TltMark {
        /// Flow index.
        flow: u32,
        /// First payload byte of the marked packet.
        seq: u64,
        /// Whether the packet was marked important (green).
        important: bool,
    },
    /// A switch sent a PFC PAUSE upstream for one of its ingress ports.
    PfcXoff {
        /// Switch node id.
        node: u32,
        /// Ingress port whose budget crossed XOFF.
        port: u32,
    },
    /// A switch sent a PFC RESUME upstream.
    PfcXon {
        /// Switch node id.
        node: u32,
        /// Ingress port whose budget fell to XON.
        port: u32,
    },
    /// An upstream transmitter actually stopped (pause took effect).
    LinkPause {
        /// Paused node (switch or host).
        node: u32,
        /// Paused egress port.
        port: u32,
    },
    /// An upstream transmitter resumed.
    LinkResume {
        /// Resumed node.
        node: u32,
        /// Resumed egress port.
        port: u32,
    },
    /// A transport armed (or re-armed) a timer.
    TimerArm {
        /// Flow index.
        flow: u32,
        /// Timer slot.
        kind: TimerId,
        /// Absolute expiry time.
        at: SimTime,
    },
    /// A transport disarmed a timer.
    TimerCancel {
        /// Flow index.
        flow: u32,
        /// Timer slot.
        kind: TimerId,
    },
    /// An armed timer fired (and was still current).
    TimerFire {
        /// Flow index.
        flow: u32,
        /// Timer slot.
        kind: TimerId,
    },
    /// A sender took a retransmission timeout (the event TLT exists to
    /// prevent).
    Timeout {
        /// Flow index.
        flow: u32,
        /// Oldest unacknowledged byte at expiry.
        seq: u64,
    },
    /// A sender entered fast retransmit (or NACK/go-back-N recovery).
    FastRetx {
        /// Flow index.
        flow: u32,
        /// First byte being retransmitted.
        seq: u64,
    },
    /// An injected fault took effect (or a pause storm ended).
    Fault {
        /// What happened.
        kind: FaultKind,
        /// Node the fault targets (link endpoint or stormed switch).
        node: u32,
        /// Port on that node (link attachment point or stormed ingress).
        port: u32,
    },
    /// The engine attempted to re-pin a flow's ECMP path after a failure.
    Reroute {
        /// Flow index.
        flow: u32,
        /// Whether a fully-up replacement path was found and adopted.
        ok: bool,
    },
    /// Periodic per-port telemetry sample.
    PortSample {
        /// Switch node id.
        node: u32,
        /// Egress port.
        port: u32,
        /// Egress queue depth (bytes).
        qlen: u64,
        /// Whether the port's transmitter is currently PFC-paused.
        paused: bool,
    },
    /// Forensic attribution of one retransmission timeout to its root
    /// cause, emitted by the engine right after the RTO fires.
    RtoForensic {
        /// Flow that took the timeout.
        flow: u32,
        /// Oldest unacknowledged byte at expiry.
        seq: u64,
        /// Attributed root cause.
        cause: RtoCause,
        /// Node where the root-cause event happened (0 when `Unknown`).
        node: u32,
        /// Port on that node (0 when `Unknown`).
        port: u32,
        /// When the root-cause event happened (the RTO time when `Unknown`).
        root_at: SimTime,
    },
}

impl TraceEvent {
    /// Stable wire tag of this event's variant.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::RunEnd { .. } => "run_end",
            TraceEvent::FlowStart { .. } => "flow_start",
            TraceEvent::FlowEnd { .. } => "flow_end",
            TraceEvent::Enqueue { .. } => "enq",
            TraceEvent::Dequeue { .. } => "deq",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::CeMark { .. } => "ce",
            TraceEvent::TltMark { .. } => "tlt_mark",
            TraceEvent::PfcXoff { .. } => "xoff",
            TraceEvent::PfcXon { .. } => "xon",
            TraceEvent::LinkPause { .. } => "pause",
            TraceEvent::LinkResume { .. } => "resume",
            TraceEvent::TimerArm { .. } => "timer_arm",
            TraceEvent::TimerCancel { .. } => "timer_cancel",
            TraceEvent::TimerFire { .. } => "timer_fire",
            TraceEvent::Timeout { .. } => "timeout",
            TraceEvent::FastRetx { .. } => "fast_retx",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Reroute { .. } => "reroute",
            TraceEvent::PortSample { .. } => "port_sample",
            TraceEvent::RtoForensic { .. } => "rto_cause",
        }
    }

    /// Encodes the event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self, t: SimTime) -> String {
        let mut s = String::with_capacity(96);
        self.write_jsonl(t, &mut s);
        s
    }

    /// Appends the event's JSONL encoding (no trailing newline) to `s`, so
    /// a sink can format every event into one reused buffer.
    pub fn write_jsonl(&self, t: SimTime, s: &mut String) {
        s.push_str("{\"t\":");
        push_u64(s, t.as_ns());
        s.push_str(",\"ev\":\"");
        s.push_str(self.tag());
        s.push('"');
        match self {
            TraceEvent::RunStart { label, seed } => {
                push_str_field(s, "label", label);
                push_field(s, "seed", *seed);
            }
            TraceEvent::RunEnd {
                drops_color,
                drops_dt,
                drops_overflow,
                wire_drops,
                down_drops,
                pause_frames,
                timeouts,
                rto_causes,
            } => {
                push_field(s, "drops_color", *drops_color);
                push_field(s, "drops_dt", *drops_dt);
                push_field(s, "drops_overflow", *drops_overflow);
                push_field(s, "wire_drops", *wire_drops);
                push_field(s, "down_drops", *down_drops);
                push_field(s, "pause_frames", *pause_frames);
                push_field(s, "timeouts", *timeouts);
                for (cause, n) in rto_causes.iter() {
                    let mut key = String::from("rto_");
                    key.push_str(cause.as_str());
                    push_field(s, &key, n);
                }
            }
            TraceEvent::FlowStart { flow, bytes } => {
                push_field(s, "flow", u64::from(*flow));
                push_field(s, "bytes", *bytes);
            }
            TraceEvent::FlowEnd { flow } => {
                push_field(s, "flow", u64::from(*flow));
            }
            TraceEvent::Enqueue {
                node,
                port,
                flow,
                seq,
                qlen,
            }
            | TraceEvent::Dequeue {
                node,
                port,
                flow,
                seq,
                qlen,
            }
            | TraceEvent::CeMark {
                node,
                port,
                flow,
                seq,
                qlen,
            } => {
                push_field(s, "node", u64::from(*node));
                push_field(s, "port", u64::from(*port));
                push_field(s, "flow", u64::from(*flow));
                push_field(s, "seq", *seq);
                push_field(s, "q", *qlen);
            }
            TraceEvent::Drop {
                node,
                port,
                flow,
                seq,
                why,
                green,
            } => {
                push_field(s, "node", u64::from(*node));
                push_field(s, "port", u64::from(*port));
                push_field(s, "flow", u64::from(*flow));
                push_field(s, "seq", *seq);
                push_str_field(s, "why", why.as_str());
                push_bool_field(s, "green", *green);
            }
            TraceEvent::TltMark {
                flow,
                seq,
                important,
            } => {
                push_field(s, "flow", u64::from(*flow));
                push_field(s, "seq", *seq);
                push_bool_field(s, "important", *important);
            }
            TraceEvent::PfcXoff { node, port }
            | TraceEvent::PfcXon { node, port }
            | TraceEvent::LinkPause { node, port }
            | TraceEvent::LinkResume { node, port } => {
                push_field(s, "node", u64::from(*node));
                push_field(s, "port", u64::from(*port));
            }
            TraceEvent::TimerArm { flow, kind, at } => {
                push_field(s, "flow", u64::from(*flow));
                push_str_field(s, "kind", kind.as_str());
                push_field(s, "at", at.as_ns());
            }
            TraceEvent::TimerCancel { flow, kind } | TraceEvent::TimerFire { flow, kind } => {
                push_field(s, "flow", u64::from(*flow));
                push_str_field(s, "kind", kind.as_str());
            }
            TraceEvent::Timeout { flow, seq } | TraceEvent::FastRetx { flow, seq } => {
                push_field(s, "flow", u64::from(*flow));
                push_field(s, "seq", *seq);
            }
            TraceEvent::Fault { kind, node, port } => {
                push_str_field(s, "kind", kind.as_str());
                push_field(s, "node", u64::from(*node));
                push_field(s, "port", u64::from(*port));
            }
            TraceEvent::Reroute { flow, ok } => {
                push_field(s, "flow", u64::from(*flow));
                push_bool_field(s, "ok", *ok);
            }
            TraceEvent::PortSample {
                node,
                port,
                qlen,
                paused,
            } => {
                push_field(s, "node", u64::from(*node));
                push_field(s, "port", u64::from(*port));
                push_field(s, "q", *qlen);
                push_bool_field(s, "paused", *paused);
            }
            TraceEvent::RtoForensic {
                flow,
                seq,
                cause,
                node,
                port,
                root_at,
            } => {
                push_field(s, "flow", u64::from(*flow));
                push_field(s, "seq", *seq);
                push_str_field(s, "cause", cause.as_str());
                push_field(s, "node", u64::from(*node));
                push_field(s, "port", u64::from(*port));
                push_field(s, "root_at", root_at.as_ns());
            }
        }
        s.push('}');
    }

    /// Decodes one JSONL line produced by [`TraceEvent::to_jsonl`].
    ///
    /// Returns `None` for malformed lines (the inspector reports them
    /// rather than panicking on a truncated trace).
    pub fn from_jsonl(line: &str) -> Option<(SimTime, TraceEvent)> {
        let fields = Fields::parse(line).ok()?;
        let t = SimTime::from_ns(fields.num("t")?);
        let u32_of = |k: &str| fields.num(k).and_then(|v| u32::try_from(v).ok());
        let ev = match fields.str("ev")? {
            "run_start" => TraceEvent::RunStart {
                label: fields.str("label")?.to_string(),
                seed: fields.num("seed")?,
            },
            "run_end" => TraceEvent::RunEnd {
                drops_color: fields.num("drops_color")?,
                drops_dt: fields.num("drops_dt")?,
                drops_overflow: fields.num("drops_overflow")?,
                wire_drops: fields.num("wire_drops")?,
                down_drops: fields.num("down_drops")?,
                pause_frames: fields.num("pause_frames")?,
                timeouts: fields.num("timeouts")?,
                rto_causes: {
                    let mut rc = RtoCauseCounts::default();
                    for cause in RtoCause::ALL {
                        let mut key = String::from("rto_");
                        key.push_str(cause.as_str());
                        rc.add(cause, fields.num(&key)?);
                    }
                    rc
                },
            },
            "flow_start" => TraceEvent::FlowStart {
                flow: u32_of("flow")?,
                bytes: fields.num("bytes")?,
            },
            "flow_end" => TraceEvent::FlowEnd {
                flow: u32_of("flow")?,
            },
            "enq" => TraceEvent::Enqueue {
                node: u32_of("node")?,
                port: u32_of("port")?,
                flow: u32_of("flow")?,
                seq: fields.num("seq")?,
                qlen: fields.num("q")?,
            },
            "deq" => TraceEvent::Dequeue {
                node: u32_of("node")?,
                port: u32_of("port")?,
                flow: u32_of("flow")?,
                seq: fields.num("seq")?,
                qlen: fields.num("q")?,
            },
            "ce" => TraceEvent::CeMark {
                node: u32_of("node")?,
                port: u32_of("port")?,
                flow: u32_of("flow")?,
                seq: fields.num("seq")?,
                qlen: fields.num("q")?,
            },
            "drop" => TraceEvent::Drop {
                node: u32_of("node")?,
                port: u32_of("port")?,
                flow: u32_of("flow")?,
                seq: fields.num("seq")?,
                why: DropWhy::parse(fields.str("why")?)?,
                green: fields.boolean("green")?,
            },
            "tlt_mark" => TraceEvent::TltMark {
                flow: u32_of("flow")?,
                seq: fields.num("seq")?,
                important: fields.boolean("important")?,
            },
            "xoff" => TraceEvent::PfcXoff {
                node: u32_of("node")?,
                port: u32_of("port")?,
            },
            "xon" => TraceEvent::PfcXon {
                node: u32_of("node")?,
                port: u32_of("port")?,
            },
            "pause" => TraceEvent::LinkPause {
                node: u32_of("node")?,
                port: u32_of("port")?,
            },
            "resume" => TraceEvent::LinkResume {
                node: u32_of("node")?,
                port: u32_of("port")?,
            },
            "timer_arm" => TraceEvent::TimerArm {
                flow: u32_of("flow")?,
                kind: TimerId::parse(fields.str("kind")?)?,
                at: SimTime::from_ns(fields.num("at")?),
            },
            "timer_cancel" => TraceEvent::TimerCancel {
                flow: u32_of("flow")?,
                kind: TimerId::parse(fields.str("kind")?)?,
            },
            "timer_fire" => TraceEvent::TimerFire {
                flow: u32_of("flow")?,
                kind: TimerId::parse(fields.str("kind")?)?,
            },
            "timeout" => TraceEvent::Timeout {
                flow: u32_of("flow")?,
                seq: fields.num("seq")?,
            },
            "fast_retx" => TraceEvent::FastRetx {
                flow: u32_of("flow")?,
                seq: fields.num("seq")?,
            },
            "fault" => TraceEvent::Fault {
                kind: FaultKind::parse(fields.str("kind")?)?,
                node: u32_of("node")?,
                port: u32_of("port")?,
            },
            "reroute" => TraceEvent::Reroute {
                flow: u32_of("flow")?,
                ok: fields.boolean("ok")?,
            },
            "port_sample" => TraceEvent::PortSample {
                node: u32_of("node")?,
                port: u32_of("port")?,
                qlen: fields.num("q")?,
                paused: fields.boolean("paused")?,
            },
            "rto_cause" => TraceEvent::RtoForensic {
                flow: u32_of("flow")?,
                seq: fields.num("seq")?,
                cause: RtoCause::parse(fields.str("cause")?)?,
                node: u32_of("node")?,
                port: u32_of("port")?,
                root_at: SimTime::from_ns(fields.num("root_at")?),
            },
            _ => return None,
        };
        Some((t, ev))
    }
}

fn push_u64(s: &mut String, v: u64) {
    use std::fmt::Write;
    let _ = write!(s, "{v}");
}

fn push_field(s: &mut String, key: &str, v: u64) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    push_u64(s, v);
}

fn push_bool_field(s: &mut String, key: &str, v: bool) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    s.push_str(if v { "true" } else { "false" });
}

fn push_str_field(s: &mut String, key: &str, v: &str) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    json::push_str(s, v);
}

/// A flat JSON object decoded into (key, value) pairs, strings borrowed
/// from the line unless they hold an escape.
struct Fields<'a> {
    pairs: Vec<(Cow<'a, str>, Value<'a>)>,
}

enum Value<'a> {
    Num(u64),
    Str(Cow<'a, str>),
    Bool(bool),
}

impl<'a> Fields<'a> {
    /// Reads one line holding a flat object of unsigned numbers, strings
    /// and booleans — the only shapes the codec emits.
    fn parse(line: &'a str) -> Result<Fields<'a>, String> {
        let mut c = Cursor::new(line);
        let mut pairs = Vec::with_capacity(8);
        c.object(|c, key| {
            let v = match c.peek() {
                Some(b'"') => Value::Str(c.string()?),
                Some(b't' | b'f') => Value::Bool(c.bool()?),
                _ => Value::Num(c.u64()?),
            };
            pairs.push((key, v));
            Ok(())
        })?;
        c.end()?;
        Ok(Fields { pairs })
    }

    fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn num(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    fn boolean(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: TraceEvent) {
        let t = SimTime::from_ns(123_456);
        let line = ev.to_jsonl(t);
        let (t2, ev2) = TraceEvent::from_jsonl(&line).unwrap_or_else(|| {
            panic!("failed to parse {line}");
        });
        assert_eq!(t, t2, "time roundtrip for {line}");
        assert_eq!(ev, ev2, "event roundtrip for {line}");
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip(TraceEvent::RunStart {
            label: "fig09/dctcp+tlt".into(),
            seed: 7,
        });
        roundtrip(TraceEvent::RunEnd {
            drops_color: 1,
            drops_dt: 2,
            drops_overflow: 3,
            wire_drops: 4,
            down_drops: 7,
            pause_frames: 5,
            timeouts: 6,
            rto_causes: {
                let mut rc = RtoCauseCounts::default();
                rc.bump(RtoCause::Color);
                rc.add(RtoCause::AckLoss, 5);
                rc
            },
        });
        roundtrip(TraceEvent::FlowStart {
            flow: 9,
            bytes: 64_000,
        });
        roundtrip(TraceEvent::FlowEnd { flow: 9 });
        roundtrip(TraceEvent::Enqueue {
            node: 1,
            port: 2,
            flow: 3,
            seq: 4,
            qlen: 5,
        });
        roundtrip(TraceEvent::Dequeue {
            node: 1,
            port: 2,
            flow: 3,
            seq: 4,
            qlen: 5,
        });
        for why in [
            DropWhy::Color,
            DropWhy::Dynamic,
            DropWhy::Overflow,
            DropWhy::Wire,
            DropWhy::LinkDown,
        ] {
            roundtrip(TraceEvent::Drop {
                node: 1,
                port: 0,
                flow: 2,
                seq: 1440,
                why,
                green: why == DropWhy::Dynamic,
            });
        }
        roundtrip(TraceEvent::CeMark {
            node: 0,
            port: 1,
            flow: 2,
            seq: 3,
            qlen: 200_001,
        });
        roundtrip(TraceEvent::TltMark {
            flow: 1,
            seq: 2880,
            important: true,
        });
        roundtrip(TraceEvent::PfcXoff { node: 3, port: 1 });
        roundtrip(TraceEvent::PfcXon { node: 3, port: 1 });
        roundtrip(TraceEvent::LinkPause { node: 4, port: 0 });
        roundtrip(TraceEvent::LinkResume { node: 4, port: 0 });
        for kind in [
            TimerId::Rto,
            TimerId::Tlp,
            TimerId::Pace,
            TimerId::DcqcnAlpha,
            TimerId::DcqcnIncrease,
        ] {
            roundtrip(TraceEvent::TimerArm {
                flow: 1,
                kind,
                at: SimTime::from_us(55),
            });
            roundtrip(TraceEvent::TimerCancel { flow: 1, kind });
            roundtrip(TraceEvent::TimerFire { flow: 1, kind });
        }
        roundtrip(TraceEvent::Timeout { flow: 5, seq: 0 });
        roundtrip(TraceEvent::FastRetx { flow: 5, seq: 1440 });
        for kind in [
            FaultKind::LinkDown,
            FaultKind::LinkUp,
            FaultKind::Degrade,
            FaultKind::StormStart,
            FaultKind::StormEnd,
        ] {
            roundtrip(TraceEvent::Fault {
                kind,
                node: 12,
                port: 3,
            });
        }
        roundtrip(TraceEvent::Reroute { flow: 8, ok: true });
        roundtrip(TraceEvent::Reroute { flow: 8, ok: false });
        roundtrip(TraceEvent::PortSample {
            node: 2,
            port: 3,
            qlen: 10_480,
            paused: true,
        });
        for cause in RtoCause::ALL {
            roundtrip(TraceEvent::RtoForensic {
                flow: 4,
                seq: 8_640,
                cause,
                node: 1,
                port: 2,
                root_at: SimTime::from_us(73),
            });
        }
    }

    #[test]
    fn labels_with_special_characters_roundtrip() {
        roundtrip(TraceEvent::RunStart {
            label: "odd \"label\" with \\ and \n newline".into(),
            seed: 0,
        });
    }

    #[test]
    fn encoding_is_stable() {
        let ev = TraceEvent::Drop {
            node: 3,
            port: 1,
            flow: 7,
            seq: 2880,
            why: DropWhy::Color,
            green: false,
        };
        assert_eq!(
            ev.to_jsonl(SimTime::from_ns(42)),
            r#"{"t":42,"ev":"drop","node":3,"port":1,"flow":7,"seq":2880,"why":"color","green":false}"#
        );
        let ev = TraceEvent::Fault {
            kind: FaultKind::LinkDown,
            node: 50,
            port: 0,
        };
        assert_eq!(
            ev.to_jsonl(SimTime::from_us(400)),
            r#"{"t":400000,"ev":"fault","kind":"link_down","node":50,"port":0}"#
        );
        let ev = TraceEvent::RtoForensic {
            flow: 7,
            seq: 2880,
            cause: RtoCause::PfcStall,
            node: 0,
            port: 3,
            root_at: SimTime::from_ns(17),
        };
        assert_eq!(
            ev.to_jsonl(SimTime::from_ns(99)),
            r#"{"t":99,"ev":"rto_cause","flow":7,"seq":2880,"cause":"pfc","node":0,"port":3,"root_at":17}"#
        );
    }

    #[test]
    fn rto_cause_counts_sum_and_merge() {
        let mut a = RtoCauseCounts::default();
        a.bump(RtoCause::Color);
        a.add(RtoCause::Wire, 3);
        a.bump(RtoCause::Unknown);
        assert_eq!(a.total(), 5);
        assert_eq!(a.known(), 4);
        assert_eq!(a.get(RtoCause::Wire), 3);
        let mut b = RtoCauseCounts::default();
        b.add(RtoCause::Wire, 2);
        b.merge(&a);
        assert_eq!(b.get(RtoCause::Wire), 5);
        assert_eq!(b.total(), 7);
        let listed: Vec<(RtoCause, u64)> = a.iter().collect();
        assert_eq!(listed.len(), RtoCause::ALL.len());
        assert_eq!(listed[0], (RtoCause::Color, 1));
    }

    #[test]
    fn rto_cause_tags_roundtrip() {
        for cause in RtoCause::ALL {
            assert_eq!(RtoCause::parse(cause.as_str()), Some(cause));
        }
        assert_eq!(RtoCause::parse("nonsense"), None);
        for why in [
            DropWhy::Color,
            DropWhy::Dynamic,
            DropWhy::Overflow,
            DropWhy::Wire,
            DropWhy::LinkDown,
        ] {
            assert_eq!(RtoCause::from_drop(why).as_str(), why.as_str());
        }
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "not json",
            r#"{"t":1}"#,
            r#"{"t":1,"ev":"nonsense"}"#,
            r#"{"t":1,"ev":"drop","node":1}"#,
            r#"{"t":-3,"ev":"flow_end","flow":0}"#,
        ] {
            assert!(TraceEvent::from_jsonl(bad).is_none(), "accepted {bad:?}");
        }
    }
}
