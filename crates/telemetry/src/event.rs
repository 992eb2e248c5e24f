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
    /// Records one attributed RTO.
    pub fn bump(&mut self, cause: RtoCause) {
        self.add(cause, 1);
    }

    /// Records `n` RTOs attributed to `cause`.
    pub fn add(&mut self, cause: RtoCause, n: u64) {
        self.counts[cause as usize] += n;
    }

    /// The count attributed to `cause`.
    pub fn get(&self, cause: RtoCause) -> u64 {
        self.counts[cause as usize]
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
/// construction and `debug_assert`ed in debug builds. The first
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
}

/// Per-phase accumulated nanoseconds — one flow's (or one scheme's) latency
/// ledger row. Field order is [`Phase::ALL`] order, so iteration, merge,
/// and serialization are deterministic.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct PhaseTimes {
    ns: [u64; Phase::ALL.len()],
}

impl PhaseTimes {
    /// Attributes `ns` nanoseconds to `phase`.
    pub fn add(&mut self, phase: Phase, ns: u64) {
        self.ns[phase as usize] += ns;
    }

    /// Nanoseconds attributed to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.ns[phase as usize]
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
}

/// Logical timers a transport may arm, as recorded in timer events. Each
/// kind is a separate slot: arming a kind again moves that timer;
/// cancelling clears it. `transport::TimerKind` is this type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TimerKind {
    /// Retransmission timeout.
    Rto,
    /// Tail loss probe (PTO).
    Tlp,
    /// Rate-limiter pacing tick (rate-based senders).
    Pace,
    /// DCQCN α-decay timer (55 μs without CNP).
    DcqcnAlpha,
    /// DCQCN rate-increase timer.
    DcqcnIncrease,
}

impl TimerKind {
    /// Stable wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            TimerKind::Rto => "rto",
            TimerKind::Tlp => "tlp",
            TimerKind::Pace => "pace",
            TimerKind::DcqcnAlpha => "alpha",
            TimerKind::DcqcnIncrease => "incr",
        }
    }
}

/// Declares `ALL`, every variant of a fieldless enum in declaration order,
/// from the list it is given, and proves that list at compile time: a
/// `match` over it must be exhaustive, so a variant left out fails to
/// compile, and `ALL[i] as usize == i`, so `v as usize` indexes `ALL` and
/// per-variant counters can be plain arrays.
///
/// ```
/// #[derive(Clone, Copy)]
/// enum Colour {
///     Red,
///     Green,
/// }
/// telemetry::all_variants!(Colour: Red, Green);
/// assert_eq!(Colour::ALL.len(), 2);
/// ```
#[macro_export]
macro_rules! all_variants {
    ($name:ident: $($v:ident),+ $(,)?) => {
        impl $name {
            /// Every variant, in declaration order: `v as usize` indexes it.
            pub const ALL: [$name; [$($name::$v),+].len()] = [$($name::$v),+];
        }

        const _: () = {
            let mut i = 0;
            while i < $name::ALL.len() {
                match $name::ALL[i] {
                    $($name::$v)|+ => {}
                }
                assert!($name::ALL[i] as usize == i, "ALL is in declaration order");
                i += 1;
            }
        };
    };
}

/// Declares each tag enum's `ALL` ([`all_variants!`]) and derives its
/// `parse` and trace-field codec from `ALL` and its hand-written `as_str`
/// (a match with no wildcard, so the compiler proves every variant has a
/// tag).
macro_rules! tag_enums {
    ($($name:ident: $($v:ident),+;)*) => {$(
        crate::all_variants!($name: $($v),+);

        impl $name {
            /// Parses a wire tag: the `ALL` entry whose `as_str` it is.
            pub fn parse(s: &str) -> Option<$name> {
                $name::ALL.into_iter().find(|v| v.as_str() == s)
            }
        }

        impl Field for $name {
            fn write(&self, key: &str, s: &mut String) {
                push_key(s, key);
                json::push_str(s, self.as_str());
            }

            fn read(fields: &Fields<'_>, key: &str) -> Option<$name> {
                $name::parse(fields.str(key)?)
            }
        }
    )*};
}

tag_enums! {
    DropWhy: Color, Dynamic, Overflow, Wire, LinkDown;
    RtoCause: Color, Dynamic, Overflow, Wire, LinkDown, PfcStall, AckLoss, Delay, Unknown;
    Phase: Serialization, Propagation, SwitchQueue, HostWait, PfcPause, FastRecovery, RtoStall;
    FaultKind: LinkDown, LinkUp, Degrade, StormStart, StormEnd;
    TimerKind: Rto, Tlp, Pace, DcqcnAlpha, DcqcnIncrease;
}

/// Declares [`TraceEvent`] once and derives its codec from that one list:
/// each variant names its wire tag (`Enqueue = "enq"`) and each field its
/// wire key (`qlen: u64 = "q"`). [`TraceEvent::tag`],
/// [`TraceEvent::write_jsonl`] and [`TraceEvent::from_jsonl`] walk the list,
/// so a field goes on the wire in declaration order, through its type's
/// [`Field`] codec.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {$(
            $(#[$vmeta:meta])*
            $variant:ident = $tag:literal {$(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ty = $key:literal,
            )*},
        )*}
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {$(
            $(#[$vmeta])*
            $variant {$(
                $(#[$fmeta])*
                $field: $ty,
            )*},
        )*}

        impl TraceEvent {
            /// Stable wire tag of this event's variant.
            pub fn tag(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $tag,)*
                }
            }

            /// Appends the event's JSONL encoding (no trailing newline) to
            /// `s`, so a sink can format every event into one reused buffer.
            pub fn write_jsonl(&self, t: SimTime, s: &mut String) {
                s.push_str("{\"t\":");
                push_u64(s, t.as_ns());
                s.push_str(",\"ev\":\"");
                s.push_str(self.tag());
                s.push('"');
                match self {
                    $(TraceEvent::$variant { $($field),* } => {
                        $($field.write($key, s);)*
                    })*
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
                let ev = match fields.str("ev")? {
                    $($tag => TraceEvent::$variant {
                        $($field: Field::read(&fields, $key)?,)*
                    },)*
                    _ => return None,
                };
                Some((t, ev))
            }
        }
    };
}

trace_events! {
    /// One structured event in the packet/flow lifecycle.
    ///
    /// `node`/`port` identify a switch and one of its egress (or, for PFC
    /// events, ingress) ports; `flow` is the flow index the engine assigned;
    /// `seq` is the first payload byte of the packet involved; `qlen` is the
    /// egress queue depth in bytes *after* the event took effect.
    #[derive(Clone, PartialEq, Debug)]
    pub enum TraceEvent {
        /// Start-of-run marker written by the harness (label + seed).
        RunStart = "run_start" {
            /// Scheme/figure label, e.g. `"fig09/dctcp+tlt"`.
            label: String = "label",
            /// RNG seed of the run.
            seed: u64 = "seed",
        },
        /// End-of-run marker carrying the producer's aggregate totals, so an
        /// inspector can verify the trace against the run without side
        /// channels.
        RunEnd = "run_end" {
            /// Color-threshold drops summed over all switches.
            drops_color: u64 = "drops_color",
            /// Dynamic-threshold drops summed over all switches.
            drops_dt: u64 = "drops_dt",
            /// Buffer-overflow drops summed over all switches.
            drops_overflow: u64 = "drops_overflow",
            /// Wire-corruption losses.
            wire_drops: u64 = "wire_drops",
            /// Frames destroyed on failed (down) links.
            down_drops: u64 = "down_drops",
            /// PFC PAUSE frames emitted.
            pause_frames: u64 = "pause_frames",
            /// Retransmission timeouts taken by all flows.
            timeouts: u64 = "timeouts",
            /// Per-cause RTO attribution (must sum to `timeouts`).
            rto_causes: RtoCauseCounts = "rto_",
        },
        /// A flow began transmitting.
        FlowStart = "flow_start" {
            /// Flow index.
            flow: u32 = "flow",
            /// Payload bytes the flow will carry.
            bytes: u64 = "bytes",
        },
        /// A flow's receiver saw the final payload byte.
        FlowEnd = "flow_end" {
            /// Flow index.
            flow: u32 = "flow",
        },
        /// A packet was admitted to a switch egress queue.
        Enqueue = "enq" {
            /// Switch node id.
            node: u32 = "node",
            /// Egress port.
            port: u32 = "port",
            /// Flow index.
            flow: u32 = "flow",
            /// First payload byte (or ACK number for control packets).
            seq: u64 = "seq",
            /// Egress queue depth after admission (bytes).
            qlen: u64 = "q",
        },
        /// A packet left a switch egress queue.
        Dequeue = "deq" {
            /// Switch node id.
            node: u32 = "node",
            /// Egress port.
            port: u32 = "port",
            /// Flow index.
            flow: u32 = "flow",
            /// First payload byte (or ACK number for control packets).
            seq: u64 = "seq",
            /// Egress queue depth after removal (bytes).
            qlen: u64 = "q",
        },
        /// A packet was dropped, with a typed reason.
        Drop = "drop" {
            /// Switch node id (for `Wire`: the transmitting node, which may be
            /// a host).
            node: u32 = "node",
            /// Egress port the packet was headed for.
            port: u32 = "port",
            /// Flow index.
            flow: u32 = "flow",
            /// First payload byte.
            seq: u64 = "seq",
            /// Typed drop reason.
            why: DropWhy = "why",
            /// Whether the victim was a green (important) data packet.
            green: bool = "green",
        },
        /// A packet was CE-marked on admission.
        CeMark = "ce" {
            /// Switch node id.
            node: u32 = "node",
            /// Egress port.
            port: u32 = "port",
            /// Flow index.
            flow: u32 = "flow",
            /// First payload byte.
            seq: u64 = "seq",
            /// Egress queue depth that triggered the mark (bytes).
            qlen: u64 = "q",
        },
        /// A sender decided a data packet's TLT importance (§5 marking).
        TltMark = "tlt_mark" {
            /// Flow index.
            flow: u32 = "flow",
            /// First payload byte of the marked packet.
            seq: u64 = "seq",
            /// Whether the packet was marked important (green).
            important: bool = "important",
        },
        /// A switch sent a PFC PAUSE upstream for one of its ingress ports.
        PfcXoff = "xoff" {
            /// Switch node id.
            node: u32 = "node",
            /// Ingress port whose budget crossed XOFF.
            port: u32 = "port",
        },
        /// A switch sent a PFC RESUME upstream.
        PfcXon = "xon" {
            /// Switch node id.
            node: u32 = "node",
            /// Ingress port whose budget fell to XON.
            port: u32 = "port",
        },
        /// An upstream transmitter actually stopped (pause took effect).
        LinkPause = "pause" {
            /// Paused node (switch or host).
            node: u32 = "node",
            /// Paused egress port.
            port: u32 = "port",
        },
        /// An upstream transmitter resumed.
        LinkResume = "resume" {
            /// Resumed node.
            node: u32 = "node",
            /// Resumed egress port.
            port: u32 = "port",
        },
        /// A transport armed (or re-armed) a timer.
        TimerArm = "timer_arm" {
            /// Flow index.
            flow: u32 = "flow",
            /// Timer slot.
            kind: TimerKind = "kind",
            /// Absolute expiry time.
            at: SimTime = "at",
        },
        /// A transport disarmed a timer.
        TimerCancel = "timer_cancel" {
            /// Flow index.
            flow: u32 = "flow",
            /// Timer slot.
            kind: TimerKind = "kind",
        },
        /// An armed timer fired (and was still current).
        TimerFire = "timer_fire" {
            /// Flow index.
            flow: u32 = "flow",
            /// Timer slot.
            kind: TimerKind = "kind",
        },
        /// A sender took a retransmission timeout (the event TLT exists to
        /// prevent).
        Timeout = "timeout" {
            /// Flow index.
            flow: u32 = "flow",
            /// Oldest unacknowledged byte at expiry.
            seq: u64 = "seq",
        },
        /// A sender entered fast retransmit (or NACK/go-back-N recovery).
        FastRetx = "fast_retx" {
            /// Flow index.
            flow: u32 = "flow",
            /// First byte being retransmitted.
            seq: u64 = "seq",
        },
        /// An injected fault took effect (or a pause storm ended).
        Fault = "fault" {
            /// What happened.
            kind: FaultKind = "kind",
            /// Node the fault targets (link endpoint or stormed switch).
            node: u32 = "node",
            /// Port on that node (link attachment point or stormed ingress).
            port: u32 = "port",
        },
        /// The engine attempted to re-pin a flow's ECMP path after a failure.
        Reroute = "reroute" {
            /// Flow index.
            flow: u32 = "flow",
            /// Whether a fully-up replacement path was found and adopted.
            ok: bool = "ok",
        },
        /// Periodic per-port telemetry sample.
        PortSample = "port_sample" {
            /// Switch node id.
            node: u32 = "node",
            /// Egress port.
            port: u32 = "port",
            /// Egress queue depth (bytes).
            qlen: u64 = "q",
            /// Whether the port's transmitter is currently PFC-paused.
            paused: bool = "paused",
        },
        /// Forensic attribution of one retransmission timeout to its root
        /// cause, emitted by the engine right after the RTO fires.
        RtoForensic = "rto_cause" {
            /// Flow that took the timeout.
            flow: u32 = "flow",
            /// Oldest unacknowledged byte at expiry.
            seq: u64 = "seq",
            /// Attributed root cause.
            cause: RtoCause = "cause",
            /// Node where the root-cause event happened (0 when `Unknown`).
            node: u32 = "node",
            /// Port on that node (0 when `Unknown`).
            port: u32 = "port",
            /// When the root-cause event happened (the RTO time when
            /// `Unknown`).
            root_at: SimTime = "root_at",
        },
    }
}

impl TraceEvent {
    /// Encodes the event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self, t: SimTime) -> String {
        let mut s = String::with_capacity(96);
        self.write_jsonl(t, &mut s);
        s
    }
}

/// How one field type goes onto a trace line under its key, and comes back.
trait Field: Sized {
    /// Appends `,"<key>":<value>`.
    fn write(&self, key: &str, s: &mut String);
    /// Reads the value under `key`; `None` when absent or mistyped.
    fn read(fields: &Fields<'_>, key: &str) -> Option<Self>;
}

impl Field for u64 {
    fn write(&self, key: &str, s: &mut String) {
        push_key(s, key);
        push_u64(s, *self);
    }

    fn read(fields: &Fields<'_>, key: &str) -> Option<u64> {
        fields.num(key)
    }
}

impl Field for u32 {
    fn write(&self, key: &str, s: &mut String) {
        u64::from(*self).write(key, s);
    }

    fn read(fields: &Fields<'_>, key: &str) -> Option<u32> {
        u32::try_from(fields.num(key)?).ok()
    }
}

impl Field for SimTime {
    fn write(&self, key: &str, s: &mut String) {
        self.as_ns().write(key, s);
    }

    fn read(fields: &Fields<'_>, key: &str) -> Option<SimTime> {
        fields.num(key).map(SimTime::from_ns)
    }
}

impl Field for bool {
    fn write(&self, key: &str, s: &mut String) {
        push_key(s, key);
        s.push_str(if *self { "true" } else { "false" });
    }

    fn read(fields: &Fields<'_>, key: &str) -> Option<bool> {
        fields.boolean(key)
    }
}

impl Field for String {
    fn write(&self, key: &str, s: &mut String) {
        push_key(s, key);
        json::push_str(s, self);
    }

    fn read(fields: &Fields<'_>, key: &str) -> Option<String> {
        fields.str(key).map(str::to_string)
    }
}

/// `key` is a prefix: one `<key><cause tag>` count per [`RtoCause::ALL`]
/// entry, in that order.
impl Field for RtoCauseCounts {
    fn write(&self, key: &str, s: &mut String) {
        for (cause, n) in self.iter() {
            s.push_str(",\"");
            s.push_str(key);
            s.push_str(cause.as_str());
            s.push_str("\":");
            push_u64(s, n);
        }
    }

    fn read(fields: &Fields<'_>, key: &str) -> Option<RtoCauseCounts> {
        let mut rc = RtoCauseCounts::default();
        for cause in RtoCause::ALL {
            rc.add(cause, fields.num(&format!("{key}{}", cause.as_str()))?);
        }
        Some(rc)
    }
}

fn push_u64(s: &mut String, v: u64) {
    use std::fmt::Write;
    let _ = write!(s, "{v}");
}

fn push_key(s: &mut String, key: &str) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
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
        for why in DropWhy::ALL {
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
        for kind in TimerKind::ALL {
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
        for kind in FaultKind::ALL {
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
    fn tags_are_distinct_and_roundtrip() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(
            all: &[T],
            as_str: fn(T) -> &'static str,
            parse: fn(&str) -> Option<T>,
        ) {
            for &v in all {
                assert_eq!(parse(as_str(v)), Some(v), "tag {:?}", as_str(v));
            }
            assert_eq!(parse("nonsense"), None);
        }
        check(&DropWhy::ALL, DropWhy::as_str, DropWhy::parse);
        check(&RtoCause::ALL, RtoCause::as_str, RtoCause::parse);
        check(&Phase::ALL, Phase::as_str, Phase::parse);
        check(&FaultKind::ALL, FaultKind::as_str, FaultKind::parse);
        check(&TimerKind::ALL, TimerKind::as_str, TimerKind::parse);
        for why in DropWhy::ALL {
            assert_eq!(RtoCause::from_drop(why).as_str(), why.as_str());
        }
    }

    /// Every per-variant counter a tag enum implies is declared in
    /// `ci/metrics_schema.json`, so no export carries a key no validator
    /// checks.
    #[test]
    fn every_tag_counter_is_declared_in_the_schema() {
        let schema = crate::schema::Schema::builtin();
        let mut keys = Vec::from(DropWhy::ALL.map(|w| format!("drops_{}", w.as_str())));
        keys.extend(RtoCause::ALL.map(|c| format!("rto_cause_{}", c.as_str())));
        keys.extend(Phase::ALL.map(|p| format!("span_phase_ns/{}", p.as_str())));
        for key in keys {
            assert!(schema.allows_exact(&key), "{key} is not declared");
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
            // A field of the wrong JSON type.
            r#"{"t":1,"ev":"flow_end","flow":"0"}"#,
            r#"{"t":1,"ev":"reroute","flow":0,"ok":1}"#,
            // A `u32` field past `u32::MAX`.
            r#"{"t":1,"ev":"flow_end","flow":4294967296}"#,
            // Unknown tags of the tag enums.
            r#"{"t":1,"ev":"drop","node":1,"port":0,"flow":2,"seq":0,"why":"red","green":false}"#,
            r#"{"t":1,"ev":"timer_fire","flow":0,"kind":"nap"}"#,
            r#"{"t":1,"ev":"fault","kind":"meteor","node":0,"port":0}"#,
            r#"{"t":1,"ev":"rto_cause","flow":0,"seq":0,"cause":"gremlin","node":0,"port":0,"root_at":0}"#,
        ] {
            assert!(TraceEvent::from_jsonl(bad).is_none(), "accepted {bad:?}");
        }
        // A `run_end` lacking one `rto_*` key.
        let mut end = TraceEvent::RunEnd {
            drops_color: 0,
            drops_dt: 0,
            drops_overflow: 0,
            wire_drops: 0,
            down_drops: 0,
            pause_frames: 0,
            timeouts: 0,
            rto_causes: RtoCauseCounts::default(),
        }
        .to_jsonl(SimTime::from_ns(1));
        assert!(TraceEvent::from_jsonl(&end).is_some());
        end = end.replace(r#","rto_unknown":0"#, "");
        assert!(TraceEvent::from_jsonl(&end).is_none(), "accepted {end:?}");
    }
}
