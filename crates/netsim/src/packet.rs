//! The on-wire packet model.
//!
//! Packets carry only metadata (sizes, sequence numbers, marks); payload
//! bytes are never materialized. Wire sizes include a fixed per-packet header
//! overhead so that serialization delays and buffer occupancy are realistic.

#![deny(clippy::cast_possible_truncation)]

use eventsim::SimTime;

/// Identifier of a flow (one message transfer between a sender/receiver pair).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
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

/// Latency-ledger journey stamps of one in-flight frame, kept in the
/// [`PacketSlab`]'s side table once the ledger is attached
/// ([`PacketSlab::stamp_journeys`]). The engine stamps the journey origin
/// when the packet enters the host source queue and accumulates per-phase
/// nanoseconds as the packet moves: wait time is measured at the
/// host/switch dequeue sites (with the port's cumulative PFC pause time
/// snapshotted at wait entry so the paused share can be split out
/// exactly), serialization and propagation at the link-transmission site.
/// On arrival at the endpoint the five journey phases sum to `now -
/// origin_ns` exactly — the per-packet half of the ledger's conservation
/// invariant.
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
    /// Journey origin, and a fresh record: the packet enters its host's
    /// source queue at `now_ns`; the NIC has been paused `pause_cum_ns` so
    /// far.
    #[inline]
    pub fn start(&mut self, now_ns: u64, pause_cum_ns: u64) {
        *self = JourneyStamps {
            origin_ns: now_ns,
            ..JourneyStamps::default()
        };
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
    #[expect(
        clippy::cast_possible_truncation,
        reason = "sack is capped at max_sack_blocks (8); one INT hop per switch and \
                  pin_paths bounds a path at 8 hops"
    )]
    pub fn wire_size(&self) -> u32 {
        HEADER_BYTES
            + self.len
            + SACK_BLOCK_BYTES * self.sack.len() as u32
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

/// A [`Packet`] as the slab stores it: every field except the SACK blocks
/// and the INT stack, whose lengths stay inline (so [`Frame::wire_size`]
/// reads nothing else) beside the index of the side-pool entry that holds
/// the lists themselves. Most frames carry neither list and never touch
/// the pool. Each public field is the [`Packet`] field of the same name.
#[derive(Clone, Debug)]
pub struct Frame {
    /// See [`Packet::flow`].
    pub flow: FlowId,
    /// See [`Packet::seq`].
    pub seq: u64,
    /// See [`Packet::len`].
    pub len: u32,
    /// See [`Packet::kind`].
    pub kind: PacketKind,
    /// See [`Packet::dir`].
    pub dir: Direction,
    /// See [`Packet::hop`].
    pub hop: u8,
    /// See [`Packet::ecn_capable`].
    pub ecn_capable: bool,
    /// See [`Packet::ce`].
    pub ce: bool,
    /// See [`Packet::ece`].
    pub ece: bool,
    /// See [`Packet::mark`].
    pub mark: TltMark,
    /// See [`Packet::color`].
    pub color: Color,
    /// See [`Packet::ts`].
    pub ts: SimTime,
    /// See [`Packet::ts_echo`].
    pub ts_echo: SimTime,
    /// See [`Packet::is_retx`].
    pub is_retx: bool,
    /// See [`Packet::is_tail`].
    pub is_tail: bool,
    /// See [`Packet::epoch`].
    pub epoch: u32,
    /// The switch ingress port a queued frame arrived on, stamped by
    /// `Switch::enqueue` and read back at its dequeue (PFC ingress
    /// accounting). It sits in what was the frame's padding.
    pub(crate) ingress: u16,
    sack_len: u16,
    int_len: u16,
    /// The side-pool entry holding the lists, or [`NO_LISTS`].
    lists: u32,
}

/// `Frame::lists` of a frame whose lists own no buffer.
const NO_LISTS: u32 = u32::MAX;

// Every packet in flight is one slot: 56 bytes (a whole `Packet` is 96);
// the ledger's journey stamps, when attached, are 64 more in a side table.
const _: () = assert!(std::mem::size_of::<Frame>() == 56);
const _: () = assert!(std::mem::size_of::<Packet>() == 96);
const _: () = assert!(std::mem::size_of::<JourneyStamps>() == 64);
const _: () = assert!(std::mem::size_of::<Option<Frame>>() == std::mem::size_of::<Frame>());

impl Frame {
    /// Whether this is a pure control packet (no payload).
    #[inline]
    pub fn is_control(&self) -> bool {
        !matches!(self.kind, PacketKind::Data)
    }

    /// [`Packet::wire_size`] of the packet this frame stores.
    #[inline]
    pub fn wire_size(&self) -> u32 {
        HEADER_BYTES
            + self.len
            + SACK_BLOCK_BYTES * u32::from(self.sack_len)
            + INT_HOP_BYTES * u32::from(self.int_len)
    }
}

/// A list length as the frame stores it.
#[inline]
fn list_len(n: usize) -> u16 {
    // The SACK list is capped at `max_sack_blocks` (8) and the INT stack
    // at one hop per switch of a path; neither comes near 2^16.
    u16::try_from(n).expect("a packet list of 2^16 entries")
}

/// The SACK blocks and INT stack of one in-flight frame.
#[derive(Debug, Default)]
struct Lists {
    sack: Vec<SackBlock>,
    int_stack: Vec<IntHop>,
}

/// The slab's side pool: one [`Lists`] entry per in-flight frame whose
/// lists own a buffer, recycled through a free list. An entry holds the
/// packet's own `Vec`s, moved in at [`PacketSlab::insert`] and out at
/// [`PacketSlab::take`], so the pool adds no allocation per packet; a
/// vacant entry holds two empty `Vec`s.
#[derive(Debug, Default)]
struct ListPool {
    entries: Vec<Lists>,
    free: Vec<u32>,
}

impl ListPool {
    /// Stores `lists`, returning its entry index.
    fn park(&mut self, lists: Lists) -> u32 {
        if let Some(i) = self.free.pop() {
            self.entries[i as usize] = lists;
            i
        } else {
            let i = u32::try_from(self.entries.len()).expect("more than 2^32 packets in flight");
            debug_assert!(i != NO_LISTS);
            self.entries.push(lists);
            i
        }
    }

    /// Moves entry `i`'s lists out and recycles the entry.
    fn unpark(&mut self, i: u32) -> Lists {
        self.free.push(i);
        std::mem::take(&mut self.entries[i as usize])
    }
}

/// Arena for in-flight packets.
///
/// `Event::Deliver` used to carry a full `Packet` inline, making it the
/// fattest event variant and bloating every queue entry (and every queue
/// move) to `size_of::<Packet>`. The slab keeps the payload out-of-line:
/// the wire schedules a [`PacketRef`], and the engine takes the packet back
/// out when the event fires. A slot is a [`Frame`], the packet less its two
/// lists, which live in a side pool that only SACK-carrying ACKs and
/// HPCC frames touch. Slots and pool entries are recycled through free
/// lists, so steady-state simulation does no allocation per delivery.
///
/// Every slot also has a `u32` link. A free slot's link names the slot
/// freed before it, so the free list costs no storage of its own and hands
/// back the most recently freed slot first. A queued frame's link names
/// the next frame of its [`FrameQueue`], so the switch and NIC queues hold
/// no buffer of their own either.
///
/// The latency ledger's [`JourneyStamps`] live in a side table on the slot
/// index too, allocated only by [`PacketSlab::stamp_journeys`]: a frame
/// carries no byte for them, and a slab that never stamps never allocates
/// the table.
#[derive(Debug)]
pub struct PacketSlab {
    slots: Vec<Option<Frame>>,
    /// One per slot, with the same capacity as `slots`.
    links: Vec<u32>,
    /// The most recently freed slot, or [`NIL`].
    free: u32,
    /// Slots holding a frame.
    live: usize,
    lists: ListPool,
    /// One per slot once attached, grown with `slots` like `links`.
    journeys: Option<Vec<JourneyStamps>>,
}

/// The null slot link: the end of the free list and of every queue.
const NIL: u32 = u32::MAX;

impl Default for PacketSlab {
    fn default() -> Self {
        PacketSlab::with_capacity(0)
    }
}

impl PacketSlab {
    /// Creates an empty slab.
    pub fn new() -> Self {
        PacketSlab::default()
    }

    /// Creates an empty slab with room for `cap` in-flight packets.
    pub fn with_capacity(cap: usize) -> Self {
        let slots = Vec::with_capacity(cap);
        PacketSlab {
            links: Vec::with_capacity(slots.capacity()),
            slots,
            free: NIL,
            live: 0,
            lists: ListPool::default(),
            journeys: None,
        }
    }

    /// Attaches the journey side table: from here on a frame's
    /// [`JourneyStamps`] sit beside its slot, from the
    /// [`JourneyStamps::start`] that opens its journey until the slot's
    /// next journey starts. Idempotent.
    pub fn stamp_journeys(&mut self) {
        if self.journeys.is_none() {
            self.journeys = Some(Vec::with_capacity(self.slots.capacity()));
        }
    }

    /// The journey stamps of the frame behind `r`, when the side table is
    /// attached and the frame's journey has started.
    #[inline]
    pub fn journey(&self, r: PacketRef) -> Option<&JourneyStamps> {
        self.journeys.as_ref()?.get(r.0 as usize)
    }

    /// Mutably borrows the journey stamps of the frame behind `r`, when
    /// the side table is attached. The table grows here, with the slots,
    /// so [`PacketSlab::insert`] does no work for it.
    #[inline]
    pub fn journey_mut(&mut self, r: PacketRef) -> Option<&mut JourneyStamps> {
        let journeys = self.journeys.as_mut()?;
        let i = r.0 as usize;
        if i >= journeys.len() {
            journeys.reserve_exact(self.slots.capacity() - journeys.len());
            journeys.resize(self.slots.len(), JourneyStamps::default());
        }
        Some(&mut journeys[i])
    }

    /// Stores `pkt`, returning a handle that must be redeemed exactly once
    /// with [`PacketSlab::take`].
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> PacketRef {
        // Exhaustive on purpose: a new `Packet` field fails to compile here
        // until the frame stores it too.
        let Packet {
            flow,
            seq,
            len,
            kind,
            dir,
            hop,
            ecn_capable,
            ce,
            ece,
            mark,
            color,
            sack,
            int_stack,
            ts,
            ts_echo,
            is_retx,
            is_tail,
            epoch,
        } = pkt;
        let (sack_len, int_len) = (list_len(sack.len()), list_len(int_stack.len()));
        // A list that owns no buffer is empty and has nothing to keep: every
        // data frame's SACK list, every non-HPCC frame's INT stack. A
        // reserved but empty INT stack is kept, so the hops the switches
        // append land in the buffer sized for them.
        let lists = if sack.capacity() == 0 && int_stack.capacity() == 0 {
            NO_LISTS
        } else {
            self.lists.park(Lists { sack, int_stack })
        };
        let frame = Frame {
            flow,
            seq,
            len,
            kind,
            dir,
            hop,
            ecn_capable,
            ce,
            ece,
            mark,
            color,
            ts,
            ts_echo,
            is_retx,
            is_tail,
            epoch,
            ingress: 0,
            sack_len,
            int_len,
            lists,
        };
        self.live += 1;
        let i = self.free;
        if i != NIL {
            debug_assert!(self.slots[i as usize].is_none());
            self.free = self.links[i as usize];
            self.slots[i as usize] = Some(frame);
            PacketRef(i)
        } else {
            let i = u32::try_from(self.slots.len()).expect("more than 2^32 packets in flight");
            assert!(i != NIL, "more than 2^32 - 1 packets in flight");
            self.slots.push(Some(frame));
            // The links grow with the slots, never ahead of or behind them:
            // one reservation per regrowth of `slots`, of the same size.
            if self.links.capacity() < self.slots.capacity() {
                self.links
                    .reserve_exact(self.slots.capacity() - self.links.len());
            }
            self.links.push(NIL);
            PacketRef(i)
        }
    }

    /// Borrows the frame behind `r` without redeeming the handle.
    ///
    /// Panics if the handle was already redeemed.
    #[inline]
    pub fn get(&self, r: PacketRef) -> &Frame {
        self.slots[r.0 as usize]
            .as_ref()
            .expect("packet handle is vacant")
    }

    /// Mutably borrows the frame behind `r` without redeeming the handle.
    ///
    /// Panics if the handle was already redeemed.
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Frame {
        self.slots[r.0 as usize]
            .as_mut()
            .expect("packet handle is vacant")
    }

    /// Appends one INT hop to the stack of the packet behind `r` (an
    /// HPCC-enabled switch at dequeue).
    ///
    /// Panics if the handle was already redeemed.
    #[inline]
    pub fn push_int(&mut self, r: PacketRef, hop: IntHop) {
        let frame = self.slots[r.0 as usize]
            .as_mut()
            .expect("packet handle is vacant");
        if frame.lists == NO_LISTS {
            frame.lists = self.lists.park(Lists::default());
        }
        self.lists.entries[frame.lists as usize].int_stack.push(hop);
        frame.int_len += 1;
    }

    /// Removes and returns the packet behind `r`, recycling its slot.
    ///
    /// Panics if the handle was already redeemed — a double-take means the
    /// engine delivered the same event twice.
    #[inline]
    pub fn take(&mut self, r: PacketRef) -> Packet {
        let frame = self.slots[r.0 as usize]
            .take()
            .expect("packet handle redeemed twice");
        self.links[r.0 as usize] = self.free;
        self.free = r.0;
        self.live -= 1;
        let Frame {
            flow,
            seq,
            len,
            kind,
            dir,
            hop,
            ecn_capable,
            ce,
            ece,
            mark,
            color,
            ts,
            ts_echo,
            is_retx,
            is_tail,
            epoch,
            ingress: _,
            sack_len,
            int_len,
            lists,
        } = frame;
        let Lists { sack, int_stack } = if lists == NO_LISTS {
            Lists::default()
        } else {
            self.lists.unpark(lists)
        };
        debug_assert_eq!(sack.len(), usize::from(sack_len));
        debug_assert_eq!(int_stack.len(), usize::from(int_len));
        Packet {
            flow,
            seq,
            len,
            kind,
            dir,
            hop,
            ecn_capable,
            ce,
            ece,
            mark,
            color,
            sack,
            int_stack,
            ts,
            ts_echo,
            is_retx,
            is_tail,
            epoch,
        }
    }

    /// Number of packets currently in flight.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no packets are in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A FIFO of in-flight frames threaded through their slots' links in a
/// [`PacketSlab`]: two slot indices, head and tail, and no buffer. Every
/// switch egress queue and every host NIC queue is one, so an idle port
/// holds 8 bytes whatever it once queued. A frame sits in at most one
/// queue at a time and is popped before its handle is redeemed.
#[derive(Clone, Copy, Debug)]
pub struct FrameQueue {
    head: u32,
    tail: u32,
}

impl Default for FrameQueue {
    fn default() -> Self {
        FrameQueue::new()
    }
}

impl FrameQueue {
    /// An empty queue.
    pub const fn new() -> FrameQueue {
        FrameQueue {
            head: NIL,
            tail: NIL,
        }
    }

    /// Whether no frame is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }

    /// Appends the frame behind `r`, which must be in `slab` and in no
    /// queue.
    #[inline]
    pub fn push_back(&mut self, slab: &mut PacketSlab, r: PacketRef) {
        debug_assert!(slab.slots[r.0 as usize].is_some(), "queued a vacant handle");
        slab.links[r.0 as usize] = NIL;
        if self.head == NIL {
            self.head = r.0;
        } else {
            slab.links[self.tail as usize] = r.0;
        }
        self.tail = r.0;
    }

    /// Removes and returns the oldest queued frame's handle.
    #[inline]
    pub fn pop_front(&mut self, slab: &PacketSlab) -> Option<PacketRef> {
        if self.head == NIL {
            return None;
        }
        let r = self.head;
        debug_assert!(
            slab.slots[r as usize].is_some(),
            "a queued handle is vacant"
        );
        self.head = slab.links[r as usize];
        Some(PacketRef(r))
    }

    /// Number of queued frames, counted by walking the queue.
    pub fn len(&self, slab: &PacketSlab) -> usize {
        let mut n = 0;
        let mut i = self.head;
        while i != NIL {
            n += 1;
            i = slab.links[i as usize];
        }
        n
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

    /// Lists round-trip through the side pool with their buffers: the
    /// frame keeps their lengths for `wire_size`, a switch's INT hop lands
    /// in the reserved stack, and a frame with no list buffer takes no
    /// pool entry.
    #[test]
    fn slab_moves_lists_through_the_side_pool() {
        let mut slab = PacketSlab::new();
        let mut ack = Packet::ack(FlowId(1), 0);
        ack.sack.push(SackBlock { start: 10, end: 20 });
        let sack_buf = ack.sack.as_ptr();
        let mut data = Packet::data(FlowId(2), 0, 1000);
        data.int_stack.reserve_exact(2);
        let int_buf = data.int_stack.as_ptr();
        let plain = slab.insert(Packet::data(FlowId(3), 0, 1000));
        let (a, d) = (slab.insert(ack), slab.insert(data));
        assert_eq!(slab.lists.entries.len(), 2, "only the two list owners park");
        assert_eq!(slab.get(a).wire_size(), HEADER_BYTES + SACK_BLOCK_BYTES);
        let hop = IntHop {
            q_len: 7,
            tx_bytes: 8,
            ts: SimTime::from_ns(9),
            rate_bps: 40_000_000_000,
        };
        slab.push_int(d, hop);
        slab.push_int(d, hop);
        assert_eq!(
            slab.get(d).wire_size(),
            HEADER_BYTES + 1000 + 2 * INT_HOP_BYTES
        );
        // A frame that had no list buffer gets a pool entry on its first hop.
        slab.push_int(plain, hop);
        assert_eq!(slab.lists.entries.len(), 3);
        let d = slab.take(d);
        assert_eq!(d.int_stack, [hop, hop]);
        assert_eq!(d.int_stack.as_ptr(), int_buf, "the reserved buffer moved");
        let a = slab.take(a);
        assert_eq!(a.sack, [SackBlock { start: 10, end: 20 }]);
        assert_eq!(a.sack.as_ptr(), sack_buf, "the SACK buffer moved");
        assert_eq!(slab.take(plain).int_stack, [hop]);
        // Recycled entries are reused before the pool grows.
        let mut again = Packet::ack(FlowId(4), 0);
        again.sack.push(SackBlock { start: 1, end: 2 });
        let r = slab.insert(again);
        assert_eq!(slab.lists.entries.len(), 3);
        assert_eq!(slab.take(r).sack.len(), 1);
        assert!(slab.is_empty());
    }

    /// The queues threaded through the slab against a model of one
    /// `VecDeque` per queue: random pushes and pops over many queues,
    /// interleaved with inserts and takes of frames in no queue. Every pop
    /// returns the model's handle, every queue's length and emptiness
    /// agree after every step, and each insert reuses the most recently
    /// freed slot (or grows the slab when none is free), as the
    /// `Vec`-backed free list did. 8 cases in debug builds, 400 optimised
    /// (`cargo test --release -p netsim frame_queue`).
    #[test]
    fn frame_queues_match_a_vecdeque_per_queue() {
        use eventsim::SimRng;
        use std::collections::VecDeque;
        let cases = if cfg!(debug_assertions) { 8 } else { 400 };
        let mut rng = SimRng::seed_from(0xF1F0_0517);
        let (mut pops, mut reused) = (0u64, 0u64);
        for case in 0..cases {
            let n = rng.gen_range_usize(1..25);
            let steps = rng.gen_range_usize(200..2_000);
            let mut slab = PacketSlab::with_capacity(rng.gen_range_usize(0..64));
            let mut queues = vec![FrameQueue::new(); n];
            let mut model: Vec<VecDeque<PacketRef>> = vec![VecDeque::new(); n];
            // Live frames in no queue, the model's free list, and the slot
            // count (the next fresh index).
            let (mut loose, mut free, mut slots) = (Vec::new(), Vec::<u32>::new(), 0u32);
            let mut tag = 0u64;
            for step in 0..steps {
                let label = format!("case {case} step {step}");
                match rng.gen_range_usize(0..20) {
                    0..=5 => {
                        // A new frame: the slab hands out the slot the model
                        // predicts, tagged with its insertion number.
                        tag += 1;
                        let want = free.pop().unwrap_or_else(|| {
                            slots += 1;
                            slots - 1
                        });
                        reused += u64::from(want + 1 < slots);
                        let r = slab.insert(Packet::data(FlowId(0), tag, 100));
                        assert_eq!(r, PacketRef(want), "{label}: slot reuse");
                        loose.push((r, tag));
                    }
                    6..=11 if !loose.is_empty() => {
                        let (r, t) = loose.swap_remove(rng.gen_range_usize(0..loose.len()));
                        let q = rng.gen_range_usize(0..n);
                        queues[q].push_back(&mut slab, r);
                        model[q].push_back(r);
                        assert_eq!(slab.get(r).seq, t, "{label}");
                    }
                    12..=16 => {
                        let q = rng.gen_range_usize(0..n);
                        let got = queues[q].pop_front(&slab);
                        assert_eq!(got, model[q].pop_front(), "{label}: queue {q} order");
                        if let Some(r) = got {
                            pops += 1;
                            loose.push((r, slab.get(r).seq));
                        }
                    }
                    _ if !loose.is_empty() => {
                        let (r, t) = loose.swap_remove(rng.gen_range_usize(0..loose.len()));
                        assert_eq!(slab.take(r).seq, t, "{label}: the frame taken");
                        free.push(r.0);
                    }
                    _ => {}
                }
                let mut queued = 0;
                for (q, (fifo, want)) in queues.iter().zip(&model).enumerate() {
                    assert_eq!(fifo.is_empty(), want.is_empty(), "{label}: queue {q}");
                    assert_eq!(fifo.len(&slab), want.len(), "{label}: queue {q}");
                    queued += want.len();
                }
                assert_eq!(slab.len(), loose.len() + queued, "{label}: live frames");
            }
            // Drain: every queue gives back the rest of its model in order.
            for (q, want) in model.iter_mut().enumerate() {
                while let Some(r) = want.pop_front() {
                    assert_eq!(queues[q].pop_front(&slab), Some(r), "case {case}: drain");
                }
                assert_eq!(queues[q].pop_front(&slab), None, "case {case}: drained");
            }
        }
        assert!(pops > 0 && reused > 0, "{pops} pops, {reused} reused slots");
    }

    #[test]
    #[should_panic(expected = "redeemed twice")]
    fn slab_take_panics_on_double_redeem() {
        let mut slab = PacketSlab::new();
        let r = slab.insert(Packet::ack(FlowId(0), 0));
        let _ = slab.take(r);
        let _ = slab.take(r);
    }

    /// The journey stamps live beside the slots, not in them: none before
    /// the side table is attached, then the record a frame's `start`
    /// opened, until the slot's next journey starts afresh.
    #[test]
    fn journeys_live_in_a_side_table_on_the_slot_index() {
        let mut slab = PacketSlab::new();
        let early = slab.insert(Packet::data(FlowId(0), 0, 100));
        assert!(slab.journey_mut(early).is_none());
        slab.stamp_journeys();
        let a = slab.insert(Packet::data(FlowId(1), 0, 100));
        let j = slab.journey_mut(a).expect("attached");
        j.start(5, 0);
        j.on_wire(7, 9);
        let stamps = |origin_ns, pause_cum_ns, serialize_ns, propagate_ns| JourneyStamps {
            origin_ns,
            wait_since_ns: origin_ns,
            pause_cum_ns,
            serialize_ns,
            propagate_ns,
            ..JourneyStamps::default()
        };
        assert_eq!(slab.journey(a), Some(&stamps(5, 0, 7, 9)));
        let _ = slab.take(a);
        let b = slab.insert(Packet::ack(FlowId(2), 0));
        assert_eq!(b, a, "the slot is reused");
        slab.journey_mut(b).expect("attached").start(11, 3);
        assert_eq!(slab.journey(b), Some(&stamps(11, 3, 0, 0)));
    }

    /// The per-packet half of the conservation invariant, through the
    /// hooks the engine calls: host wait (part of it paused), a first
    /// link, a switch queue (the whole wait paused, and a pause counter
    /// that ran further than the wait), a second link.
    #[test]
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
