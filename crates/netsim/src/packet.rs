//! The on-wire packet model.
//!
//! Packets carry only metadata (sizes, sequence numbers, marks); payload
//! bytes are never materialized. Wire sizes include a fixed per-packet header
//! overhead so that serialization delays and buffer occupancy are realistic.

use eventsim::SimTime;

/// Identifier of a flow (one message transfer between a sender/receiver pair).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u32);

/// Which way a packet travels along its flow's pinned path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Sender → receiver (data).
    Fwd,
    /// Receiver → sender (ACK / NACK / CNP).
    Rev,
}

/// Transport-layer packet type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketKind {
    /// A data segment carrying `len` payload bytes starting at `seq`.
    Data,
    /// A (selective) acknowledgement; `seq` is the cumulative ACK number.
    Ack,
    /// RoCE negative acknowledgement; `seq` is the expected sequence number.
    Nack,
    /// DCQCN Congestion Notification Packet.
    Cnp,
}

/// TLT transport-layer mark (§5 and Algorithm 1 of the paper).
///
/// `ImportantData` / `ImportantEcho` implement the one-important-in-flight
/// self-clocking; the `ImportantClock*` variants are the important
/// ACK-clocking packets whose duplicate ACKs must be hidden from congestion
/// control (Appendix A).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TltMark {
    /// Not a TLT-important packet.
    #[default]
    None,
    /// An important data packet; receiver must echo immediately.
    ImportantData,
    /// The immediate ACK for an `ImportantData` packet.
    ImportantEcho,
    /// Data injected by important ACK-clocking (window/buffer limits bypassed).
    ImportantClockData,
    /// The ACK for an `ImportantClockData` packet; dropped at the TLT layer
    /// when it would register as a duplicate ACK.
    ImportantClockEcho,
}

impl TltMark {
    /// Whether this mark makes the packet "important" at the network layer.
    pub fn is_important(self) -> bool {
        !matches!(self, TltMark::None)
    }
}

/// Network-layer packet color, as programmed via switch ACLs on DSCP.
///
/// Green packets bypass the color-aware dropping threshold; red packets are
/// proactively dropped once the egress queue reaches it (§4.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Color {
    /// Important: admitted up to the dynamic threshold.
    #[default]
    Green,
    /// Unimportant: proactively dropped beyond the color-aware threshold.
    Red,
}

/// One SACK block: the half-open byte range `[start, end)` held by the
/// receiver above the cumulative ACK point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SackBlock {
    /// First byte of the block.
    pub start: u64,
    /// One past the last byte of the block.
    pub end: u64,
}

/// One hop of in-band network telemetry appended by an HPCC-enabled switch
/// at dequeue time.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct IntHop {
    /// Egress queue length at dequeue (bytes).
    pub q_len: u64,
    /// Cumulative bytes transmitted by this egress port.
    pub tx_bytes: u64,
    /// Switch-local timestamp of the dequeue.
    pub ts: SimTime,
    /// Port capacity in bits per second.
    pub rate_bps: u64,
}

// The latency ledger's per-packet observer. The engine calls its four hooks
// unconditionally; the `ledger` feature decides, here and nowhere else,
// whether they do anything. Off, the type is zero-sized and the hooks are
// empty inline bodies, so a packet carries not one byte for it.
#[cfg(feature = "ledger")]
mod journey {
    /// Latency-ledger journey stamps, carried by every in-flight packet as
    /// `Packet::lg`. The engine stamps the journey origin when the packet
    /// enters the host source queue and accumulates per-phase nanoseconds
    /// as the packet moves: wait time is measured at the host/switch
    /// dequeue sites (with the port's cumulative PFC pause time snapshotted
    /// at wait entry so the paused share can be split out exactly),
    /// serialization and propagation at the link-transmission site. On
    /// arrival at the endpoint the five journey phases sum to `now -
    /// origin_ns` exactly — the per-packet half of the ledger's
    /// conservation invariant.
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
    pub struct JourneyStamps {
        /// When the packet entered the host source queue (journey origin, ns).
        pub origin_ns: u64,
        /// When the packet entered the queue it currently waits in (ns).
        pub wait_since_ns: u64,
        /// The waited-on port's cumulative pause time at wait entry (ns).
        pub pause_cum_ns: u64,
        /// Nanoseconds spent serializing onto links so far.
        pub serialize_ns: u64,
        /// Nanoseconds spent in flight across links so far.
        pub propagate_ns: u64,
        /// Nanoseconds waiting in switch egress FIFOs (pause share excluded).
        pub queue_ns: u64,
        /// Nanoseconds blocked behind a PFC pause (host or switch egress).
        pub pause_ns: u64,
        /// Nanoseconds waiting in the host source queue (pause share excluded).
        pub host_ns: u64,
    }

    impl JourneyStamps {
        /// Whether the stamps are compiled in.
        pub const ON: bool = true;

        /// Journey origin: the packet enters its host's source queue at
        /// `now_ns`; the NIC has been paused `pause_cum_ns` so far.
        #[inline]
        pub fn start(&mut self, now_ns: u64, pause_cum_ns: u64) {
            self.origin_ns = now_ns;
            self.wait_begin(now_ns, pause_cum_ns);
        }

        /// Wait-begin: the packet enters an egress queue at `now_ns`; the
        /// port has been paused `pause_cum_ns` so far.
        #[inline]
        pub fn wait_begin(&mut self, now_ns: u64, pause_cum_ns: u64) {
            self.wait_since_ns = now_ns;
            self.pause_cum_ns = pause_cum_ns;
        }

        /// Wait-close: the packet leaves the queue at `now_ns`, from a port
        /// that is unpaused now and has been paused `pause_cum_ns` in all,
        /// so the cumulative counter alone bounds how much of the wait was
        /// PFC back-pressure; the rest is host/pacing wait at a NIC
        /// (`at_host`) or switch queueing at a switch.
        #[inline]
        pub fn wait_end(&mut self, now_ns: u64, pause_cum_ns: u64, at_host: bool) {
            let waited = now_ns - self.wait_since_ns;
            let paused = pause_cum_ns.saturating_sub(self.pause_cum_ns).min(waited);
            self.pause_ns += paused;
            if at_host {
                self.host_ns += waited - paused;
            } else {
                self.queue_ns += waited - paused;
            }
        }

        /// Journey contiguity: dequeue at `now`, arrival at `now + tx +
        /// delay` — accumulating exactly those two terms keeps the journey's
        /// phase sum equal to arrival − origin with no gap.
        #[inline]
        pub fn on_wire(&mut self, tx_ns: u64, delay_ns: u64) {
            self.serialize_ns += tx_ns;
            self.propagate_ns += delay_ns;
        }
    }
}

#[cfg(not(feature = "ledger"))]
mod journey {
    /// Latency-ledger journey stamps with the `ledger` feature off:
    /// zero-sized, every hook an empty inline body.
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
    pub struct JourneyStamps;

    impl JourneyStamps {
        /// Whether the stamps are compiled in.
        pub const ON: bool = false;

        /// Journey origin (no-op).
        #[inline]
        pub fn start(&mut self, _now_ns: u64, _pause_cum_ns: u64) {}

        /// Wait-begin (no-op).
        #[inline]
        pub fn wait_begin(&mut self, _now_ns: u64, _pause_cum_ns: u64) {}

        /// Wait-close (no-op).
        #[inline]
        pub fn wait_end(&mut self, _now_ns: u64, _pause_cum_ns: u64, _at_host: bool) {}

        /// Link transmission (no-op).
        #[inline]
        pub fn on_wire(&mut self, _tx_ns: u64, _delay_ns: u64) {}
    }
}

pub use journey::JourneyStamps;

/// Fixed L2+L3+L4 header overhead added to every packet's wire size (bytes).
pub const HEADER_BYTES: u32 = 48;
/// Wire overhead per SACK block (bytes).
pub const SACK_BLOCK_BYTES: u32 = 8;
/// Wire overhead per INT hop record (bytes).
pub const INT_HOP_BYTES: u32 = 8;

/// A simulated packet.
///
/// # Examples
///
/// ```
/// use netsim::packet::{Direction, FlowId, Packet, PacketKind};
///
/// let pkt = Packet::data(FlowId(1), 0, 1440);
/// assert_eq!(pkt.kind, PacketKind::Data);
/// assert_eq!(pkt.wire_size(), 1440 + 48);
/// assert_eq!(pkt.dir, Direction::Fwd);
/// ```
#[derive(Clone, Debug)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Data: first payload byte number. ACK: cumulative ACK number.
    /// NACK: expected sequence number.
    pub seq: u64,
    /// Payload length in bytes (0 for pure control packets).
    pub len: u32,
    /// Transport-layer packet type.
    pub kind: PacketKind,
    /// Travel direction along the flow's pinned path.
    pub dir: Direction,
    /// Index of the next entry of the path to use (maintained by the engine).
    pub hop: u8,
    /// ECN: this packet is ECN-capable transport.
    pub ecn_capable: bool,
    /// ECN: Congestion Experienced mark (set by switches).
    pub ce: bool,
    /// ACK only: ECN-Echo — the acked data packet carried a CE mark.
    pub ece: bool,
    /// TLT transport mark.
    pub mark: TltMark,
    /// Network-layer color derived from the mark / packet kind.
    pub color: Color,
    /// SACK blocks (ACKs only; empty otherwise).
    pub sack: Vec<SackBlock>,
    /// INT telemetry stack (HPCC; empty otherwise).
    pub int_stack: Vec<IntHop>,
    /// Sender timestamp, echoed back in `ts_echo` by the receiver.
    pub ts: SimTime,
    /// Echoed timestamp (ACKs; `SimTime::ZERO` when absent).
    pub ts_echo: SimTime,
    /// Whether this data packet is a retransmission.
    pub is_retx: bool,
    /// Data packets: whether the receiver should treat `seq` as covering the
    /// final byte of the flow (used by rate-based receivers to detect tails).
    pub is_tail: bool,
    /// RTO-forensics provenance: the sender's transmit epoch when the engine
    /// put this packet on the wire. Epochs advance on each attributed RTO, so
    /// a loss record can tell pre-timeout losses from retransmission-round
    /// losses without storing per-packet history.
    pub epoch: u32,
    /// Latency-ledger journey stamps (zero-sized unless the `ledger`
    /// feature is on).
    pub lg: JourneyStamps,
}

impl Packet {
    /// Creates a forward-direction data packet for `flow` carrying payload
    /// bytes `[seq, seq + len)`.
    pub fn data(flow: FlowId, seq: u64, len: u32) -> Packet {
        Packet {
            flow,
            seq,
            len,
            kind: PacketKind::Data,
            dir: Direction::Fwd,
            hop: 0,
            ecn_capable: false,
            ce: false,
            ece: false,
            mark: TltMark::None,
            color: Color::Green,
            sack: Vec::new(),
            int_stack: Vec::new(),
            ts: SimTime::ZERO,
            ts_echo: SimTime::ZERO,
            is_retx: false,
            is_tail: false,
            epoch: 0,
            lg: Default::default(),
        }
    }

    /// Creates a reverse-direction ACK with cumulative ACK number `ack`.
    pub fn ack(flow: FlowId, ack: u64) -> Packet {
        Packet {
            kind: PacketKind::Ack,
            dir: Direction::Rev,
            ..Packet::data(flow, ack, 0)
        }
    }

    /// Creates a reverse-direction NACK indicating the receiver expects
    /// sequence number `expected`.
    pub fn nack(flow: FlowId, expected: u64) -> Packet {
        Packet {
            kind: PacketKind::Nack,
            dir: Direction::Rev,
            ..Packet::data(flow, expected, 0)
        }
    }

    /// Creates a reverse-direction DCQCN congestion notification packet.
    pub fn cnp(flow: FlowId) -> Packet {
        Packet {
            kind: PacketKind::Cnp,
            dir: Direction::Rev,
            ..Packet::data(flow, 0, 0)
        }
    }

    /// Whether this is a pure control packet (no payload).
    #[inline]
    pub fn is_control(&self) -> bool {
        !matches!(self.kind, PacketKind::Data)
    }

    /// Bytes this packet occupies on the wire and in switch buffers.
    #[inline]
    pub fn wire_size(&self) -> u32 {
        HEADER_BYTES
            + self.len
            // simlint: allow(truncation, sack is capped at max_sack_blocks (8))
            + SACK_BLOCK_BYTES * self.sack.len() as u32
            // simlint: allow(truncation, one INT hop per switch and pin_paths bounds a path at 8 hops)
            + INT_HOP_BYTES * self.int_stack.len() as u32
    }

    /// Exclusive end of the payload byte range (data packets).
    pub fn seq_end(&self) -> u64 {
        self.seq + u64::from(self.len)
    }

    /// Assigns the network-layer color implied by the TLT mark and packet
    /// kind (§5: "all control packets are marked as important").
    ///
    /// With TLT disabled every packet stays green so that a misconfigured
    /// color-aware threshold cannot drop baseline traffic.
    pub fn colorize(&mut self, tlt_enabled: bool) {
        self.color = if !tlt_enabled || self.is_control() || self.mark.is_important() {
            Color::Green
        } else {
            Color::Red
        };
    }
}

/// Handle into a [`PacketSlab`]: a 4-byte stand-in for an in-flight
/// [`Packet`], small enough that event-queue entries stay thin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef(u32);

/// Arena for in-flight packets.
///
/// `Event::Deliver` used to carry a full `Packet` inline, making it the
/// fattest event variant and bloating every queue entry (and every queue
/// move) to `size_of::<Packet>`. The slab keeps the payload out-of-line:
/// the wire schedules a [`PacketRef`], and the engine takes the packet back
/// out when the event fires. Slots are recycled through a free list, so
/// steady-state simulation does no allocation per delivery.
#[derive(Debug, Default)]
pub struct PacketSlab {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketSlab {
    /// Creates an empty slab.
    pub fn new() -> Self {
        PacketSlab::default()
    }

    /// Creates an empty slab with room for `cap` in-flight packets.
    pub fn with_capacity(cap: usize) -> Self {
        PacketSlab {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
        }
    }

    /// Stores `pkt`, returning a handle that must be redeemed exactly once
    /// with [`PacketSlab::take`].
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> PacketRef {
        if let Some(i) = self.free.pop() {
            debug_assert!(self.slots[i as usize].is_none());
            self.slots[i as usize] = Some(pkt);
            PacketRef(i)
        } else {
            let i = u32::try_from(self.slots.len()).expect("more than 2^32 packets in flight");
            self.slots.push(Some(pkt));
            PacketRef(i)
        }
    }

    /// Borrows the packet behind `r` without redeeming the handle.
    ///
    /// Panics if the handle was already redeemed.
    #[inline]
    pub fn get(&self, r: PacketRef) -> &Packet {
        self.slots[r.0 as usize]
            .as_ref()
            .expect("packet handle is vacant")
    }

    /// Mutably borrows the packet behind `r` without redeeming the handle.
    ///
    /// Panics if the handle was already redeemed.
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        self.slots[r.0 as usize]
            .as_mut()
            .expect("packet handle is vacant")
    }

    /// Removes and returns the packet behind `r`, recycling its slot.
    ///
    /// Panics if the handle was already redeemed — a double-take means the
    /// engine delivered the same event twice.
    #[inline]
    pub fn take(&mut self, r: PacketRef) -> Packet {
        let pkt = self.slots[r.0 as usize]
            .take()
            .expect("packet handle redeemed twice");
        self.free.push(r.0);
        pkt
    }

    /// Number of packets currently in flight.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no packets are in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_roundtrips_and_recycles_slots() {
        let mut slab = PacketSlab::new();
        let a = slab.insert(Packet::data(FlowId(1), 0, 1440));
        let b = slab.insert(Packet::data(FlowId(2), 1440, 1440));
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.take(a).flow, FlowId(1));
        assert_eq!(slab.len(), 1);
        // The freed slot is reused before the slab grows.
        let c = slab.insert(Packet::ack(FlowId(3), 0));
        assert_eq!(c, a);
        assert_eq!(slab.take(b).flow, FlowId(2));
        assert_eq!(slab.take(c).flow, FlowId(3));
        assert!(slab.is_empty());
    }

    #[test]
    #[should_panic(expected = "redeemed twice")]
    fn slab_take_panics_on_double_redeem() {
        let mut slab = PacketSlab::new();
        let r = slab.insert(Packet::ack(FlowId(0), 0));
        let _ = slab.take(r);
        let _ = slab.take(r);
    }

    /// "Off costs nothing" as an exact fact: without the `ledger` feature
    /// the journey stamps take no room in a packet.
    #[test]
    fn journey_stamps_are_zero_sized_when_off() {
        if !JourneyStamps::ON {
            assert_eq!(std::mem::size_of::<JourneyStamps>(), 0);
            assert_eq!(std::mem::size_of::<Packet>(), 96);
        } else {
            assert_eq!(std::mem::size_of::<JourneyStamps>(), 64);
        }
    }

    /// The per-packet half of the conservation invariant, through the
    /// hooks the engine calls: host wait (part of it paused), a first
    /// link, a switch queue (the whole wait paused, and a pause counter
    /// that ran further than the wait), a second link.
    #[test]
    #[cfg(feature = "ledger")]
    fn journey_phases_sum_to_arrival_minus_origin() {
        let mut j = JourneyStamps::default();
        j.start(1_000, 40);
        j.wait_end(1_300, 140, true);
        assert_eq!((j.host_ns, j.pause_ns, j.queue_ns), (200, 100, 0));
        j.on_wire(300, 10_000);
        j.wait_begin(11_600, 7);
        j.wait_end(11_650, 90, false);
        assert_eq!((j.host_ns, j.pause_ns, j.queue_ns), (200, 150, 0));
        j.on_wire(300, 2_000);
        let arrival = 11_650 + 300 + 2_000;
        assert_eq!(j.origin_ns, 1_000);
        assert_eq!(
            j.serialize_ns + j.propagate_ns + j.queue_ns + j.host_ns + j.pause_ns,
            arrival - j.origin_ns
        );
    }

    #[test]
    fn constructors_set_kinds_and_directions() {
        let d = Packet::data(FlowId(3), 100, 1440);
        assert_eq!(d.kind, PacketKind::Data);
        assert_eq!(d.dir, Direction::Fwd);
        assert_eq!(d.seq_end(), 1540);

        let a = Packet::ack(FlowId(3), 1540);
        assert_eq!(a.kind, PacketKind::Ack);
        assert_eq!(a.dir, Direction::Rev);
        assert!(a.is_control());

        let n = Packet::nack(FlowId(3), 100);
        assert_eq!(n.kind, PacketKind::Nack);
        let c = Packet::cnp(FlowId(3));
        assert_eq!(c.kind, PacketKind::Cnp);
        assert_eq!(c.wire_size(), HEADER_BYTES);
    }

    #[test]
    fn wire_size_accounts_for_options() {
        let mut a = Packet::ack(FlowId(0), 0);
        a.sack.push(SackBlock { start: 10, end: 20 });
        a.sack.push(SackBlock { start: 30, end: 40 });
        assert_eq!(a.wire_size(), HEADER_BYTES + 2 * SACK_BLOCK_BYTES);

        let mut d = Packet::data(FlowId(0), 0, 1000);
        d.int_stack.push(IntHop {
            q_len: 0,
            tx_bytes: 0,
            ts: SimTime::ZERO,
            rate_bps: 40_000_000_000,
        });
        assert_eq!(d.wire_size(), HEADER_BYTES + 1000 + INT_HOP_BYTES);
    }

    #[test]
    fn colorize_maps_marks_to_colors() {
        let mut d = Packet::data(FlowId(0), 0, 1440);
        d.colorize(true);
        assert_eq!(d.color, Color::Red, "unmarked data is unimportant");

        d.mark = TltMark::ImportantData;
        d.colorize(true);
        assert_eq!(d.color, Color::Green);

        d.mark = TltMark::ImportantClockData;
        d.colorize(true);
        assert_eq!(d.color, Color::Green);

        let mut a = Packet::ack(FlowId(0), 0);
        a.colorize(true);
        assert_eq!(a.color, Color::Green, "control packets are important");
    }

    #[test]
    fn colorize_without_tlt_is_all_green() {
        let mut d = Packet::data(FlowId(0), 0, 1440);
        d.colorize(false);
        assert_eq!(d.color, Color::Green);
    }

    #[test]
    fn mark_importance() {
        assert!(!TltMark::None.is_important());
        assert!(TltMark::ImportantData.is_important());
        assert!(TltMark::ImportantEcho.is_important());
        assert!(TltMark::ImportantClockData.is_important());
        assert!(TltMark::ImportantClockEcho.is_important());
    }
}
