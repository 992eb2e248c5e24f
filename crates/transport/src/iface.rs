//! The engine ↔ transport interface.
//!
//! A transport never touches the network directly: it receives packets and
//! timer expirations from the engine and pushes [`Action`]s into a [`Ctx`].
//! The engine materializes `Send` actions as packets entering the source
//! host's NIC queue and manages timer generations so that a re-armed timer
//! silently invalidates its predecessor.

use eventsim::SimTime;
use netsim::packet::Packet;

/// Logical timers a transport may arm. Each kind is a separate slot: arming
/// a kind again moves that timer; cancelling clears it.
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

/// An effect requested by a transport.
#[derive(Clone, Debug)]
pub enum Action {
    /// Transmit `packet` (direction chosen by `packet.dir`).
    Send(Packet),
    /// Arm (or move) the timer of the given kind to fire at `at`.
    SetTimer {
        /// Which timer slot.
        kind: TimerKind,
        /// Absolute expiry time.
        at: SimTime,
    },
    /// Disarm the timer of the given kind.
    CancelTimer {
        /// Which timer slot.
        kind: TimerKind,
    },
}

/// Per-event context handed to transport callbacks.
///
/// # Examples
///
/// ```
/// use transport::{Ctx, Action, TimerKind};
/// use eventsim::SimTime;
/// use netsim::packet::{Packet, FlowId};
///
/// let mut actions = Vec::new();
/// let mut ctx = Ctx { now: SimTime::from_us(5), actions: &mut actions };
/// ctx.send(Packet::ack(FlowId(0), 100));
/// ctx.set_timer(TimerKind::Rto, SimTime::from_ms(4));
/// assert_eq!(ctx.actions.len(), 2);
/// ```
pub struct Ctx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Output action list (drained by the engine after the callback).
    pub actions: &'a mut Vec<Action>,
}

impl Ctx<'_> {
    /// Queues a packet for transmission.
    pub fn send(&mut self, packet: Packet) {
        self.actions.push(Action::Send(packet));
    }

    /// Arms timer `kind` to fire at absolute time `at`.
    pub fn set_timer(&mut self, kind: TimerKind, at: SimTime) {
        self.actions.push(Action::SetTimer { kind, at });
    }

    /// Disarms timer `kind`.
    pub fn cancel_timer(&mut self, kind: TimerKind) {
        self.actions.push(Action::CancelTimer { kind });
    }
}

/// Counters every sender exposes for the experiment harness.
#[derive(Clone, Debug, Default)]
pub struct SenderStats {
    /// Retransmission timeouts taken.
    pub timeouts: u64,
    /// Sequence number the most recent RTO fired for (the oldest
    /// unacknowledged byte at expiry); meaningless while `timeouts == 0`.
    pub last_rto_seq: u64,
    /// Segments retransmitted by fast recovery (incl. NACK-triggered).
    pub fast_retx: u64,
    /// Segments retransmitted after an RTO.
    pub rto_retx: u64,
    /// Data packets sent (including retransmissions and probes).
    pub data_pkts_sent: u64,
    /// Payload bytes sent (including retransmissions).
    pub bytes_sent: u64,
    /// Data packets marked TLT-important.
    pub important_pkts: u64,
    /// Data packets left unimportant.
    pub unimportant_pkts: u64,
    /// Important ACK-clocking packets injected.
    pub clocking_pkts: u64,
    /// Payload bytes carried by clocking packets.
    pub clocking_bytes: u64,
    /// Reservoir of RTT samples (bounded).
    pub rtt_samples: Vec<SimTime>,
    /// Largest estimated RTO observed over the flow's lifetime.
    pub rto_max: SimTime,
    /// Segment delivery time samples (first transmission → cumulative ACK),
    /// collected only when the sender was configured to do so.
    pub delivery_samples: Vec<SimTime>,
}

/// A sender-side transport state machine.
///
/// **A done sender is inert.** Once [`FlowSender::is_done`] holds,
/// `on_packet` (ACK, NACK or CNP) and `on_timer` (any kind) emit no action
/// and leave [`FlowSender::stats`] unchanged. The engine relies on this to
/// consume a done flow's sender into its counters
/// ([`FlowSender::into_stats`]) and to skip what would have reached it.
pub trait FlowSender {
    /// Starts the flow: transmit the initial window / first paced packet.
    fn start(&mut self, ctx: &mut Ctx);
    /// Handles a reverse-direction packet (ACK / NACK / CNP).
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx);
    /// Handles an expired timer of kind `kind`.
    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx);
    /// All payload bytes acknowledged.
    fn is_done(&self) -> bool;
    /// Counters for the harness.
    fn stats(&self) -> &SenderStats;
    /// Consumes the sender into its counters. The default clones them;
    /// senders that own theirs move them out.
    fn into_stats(self: Box<Self>) -> SenderStats {
        self.stats().clone()
    }
    /// Attaches a flight-recorder handle; instrumented senders emit
    /// timeout / fast-retransmit / TLT-marking events through it. The
    /// default ignores it so minimal test senders need no changes.
    fn set_tracer(&mut self, tracer: telemetry::Tracer) {
        let _ = tracer;
    }
}

/// A receiver-side transport state machine.
pub trait FlowReceiver {
    /// Handles a forward-direction (data) packet.
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx);
    /// Handles an expired timer (unused by current receivers).
    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
        let _ = (kind, ctx);
    }
    /// Bytes received contiguously from offset zero.
    fn bytes_complete(&self) -> u64;
    /// Whether the entire flow has been received.
    fn is_complete(&self) -> bool;
}

/// Which TLT flavor (if any) a transport instance runs with.
#[derive(Clone, Copy, Debug, Default)]
pub enum TltMode {
    /// TLT disabled: baseline transport, all packets green.
    #[default]
    Off,
    /// Window-based TLT (§5.1) with the given clocking policy.
    Window(tlt_core::WindowTltConfig),
    /// Rate-based TLT (§5.2) with the given periodic-marking setting.
    Rate(tlt_core::RateTltConfig),
}

impl TltMode {
    /// Whether TLT is enabled at all (drives `Packet::colorize`).
    pub fn enabled(&self) -> bool {
        !matches!(self, TltMode::Off)
    }
}

/// The transports evaluated in the paper (§7.1 baselines).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransportKind {
    /// TCP NewReno with SACK.
    Tcp,
    /// DCTCP.
    Dctcp,
    /// Vanilla DCQCN: go-back-N recovery, static RTO.
    DcqcnGbn,
    /// DCQCN with SACK (IRN recovery without the BDP window cap).
    DcqcnSack,
    /// DCQCN with IRN: selective retransmission + BDP-bounded window.
    DcqcnIrn,
    /// HPCC with SACK recovery.
    Hpcc,
}

impl TransportKind {
    /// Whether this transport is RoCE-based (1 μs links, RED ECN in the
    /// paper's setup) rather than TCP-based.
    pub fn is_roce(self) -> bool {
        matches!(
            self,
            TransportKind::DcqcnGbn
                | TransportKind::DcqcnSack
                | TransportKind::DcqcnIrn
                | TransportKind::Hpcc
        )
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Tcp => "TCP",
            TransportKind::Dctcp => "DCTCP",
            TransportKind::DcqcnGbn => "DCQCN",
            TransportKind::DcqcnSack => "DCQCN+SACK",
            TransportKind::DcqcnIrn => "DCQCN+IRN",
            TransportKind::Hpcc => "HPCC",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::FlowId;

    #[test]
    fn ctx_collects_actions_in_order() {
        let mut actions = Vec::new();
        let mut ctx = Ctx {
            now: SimTime::ZERO,
            actions: &mut actions,
        };
        ctx.send(Packet::data(FlowId(1), 0, 100));
        ctx.set_timer(TimerKind::Rto, SimTime::from_ms(4));
        ctx.cancel_timer(TimerKind::Tlp);
        assert!(matches!(actions[0], Action::Send(_)));
        assert!(matches!(
            actions[1],
            Action::SetTimer {
                kind: TimerKind::Rto,
                ..
            }
        ));
        assert!(matches!(
            actions[2],
            Action::CancelTimer {
                kind: TimerKind::Tlp
            }
        ));
    }

    #[test]
    fn transport_kind_classification() {
        assert!(!TransportKind::Tcp.is_roce());
        assert!(!TransportKind::Dctcp.is_roce());
        assert!(TransportKind::DcqcnGbn.is_roce());
        assert!(TransportKind::DcqcnSack.is_roce());
        assert!(TransportKind::DcqcnIrn.is_roce());
        assert!(TransportKind::Hpcc.is_roce());
        assert_eq!(TransportKind::DcqcnIrn.name(), "DCQCN+IRN");
    }

    #[test]
    fn tlt_mode_enabled() {
        assert!(!TltMode::Off.enabled());
        assert!(TltMode::Window(Default::default()).enabled());
        assert!(TltMode::Rate(Default::default()).enabled());
    }

    type Pair = (Box<dyn FlowSender>, Box<dyn FlowReceiver>);

    /// The six transports, with TLT on (and TLP for the window family) so
    /// that every timer slot and every echo path has state behind it.
    fn six_transports(flow: FlowId, bytes: u64) -> [(&'static str, Pair); 6] {
        use crate::cc::{Dctcp, Hpcc, NewReno};
        use crate::roce::{RoceCfg, RoceReceiver, RoceRecovery, RoceSender};
        use crate::tcp::{TcpReceiver, WindowCfg, WindowSender};
        let window = |ecn_capable: bool| {
            let mut c = WindowCfg::new(flow, bytes);
            c.tlp = true;
            c.ecn_capable = ecn_capable;
            c.tlt = TltMode::Window(Default::default());
            c
        };
        let tcp_rx = || Box::new(TcpReceiver::new(flow, bytes, true, 8));
        let rate = |recovery| -> Pair {
            let mut c = RoceCfg::new(flow, bytes, recovery);
            c.tlt = TltMode::Rate(tlt_core::RateTltConfig { every_n: Some(8) });
            let selective = !matches!(recovery, RoceRecovery::GoBackN);
            let rx = Box::new(RoceReceiver::new(flow, bytes, selective, true));
            (Box::new(RoceSender::new(c)), rx)
        };
        let (c, d) = (window(false), window(true));
        let rtt = SimTime::from_us(8);
        [
            (
                "tcp",
                (
                    Box::new(WindowSender::new(c.clone(), NewReno::new(c.mss, 10))),
                    tcp_rx(),
                ),
            ),
            (
                "dctcp",
                (
                    Box::new(WindowSender::new(d.clone(), Dctcp::new(d.mss, 10))),
                    tcp_rx(),
                ),
            ),
            (
                "hpcc",
                (
                    Box::new(WindowSender::new(c.clone(), Hpcc::new(c.mss, rtt, 40_000))),
                    tcp_rx(),
                ),
            ),
            ("dcqcn", rate(RoceRecovery::GoBackN)),
            (
                "dcqcn+sack",
                rate(RoceRecovery::Selective { window_cap: None }),
            ),
            (
                "dcqcn+irn",
                rate(RoceRecovery::Selective {
                    window_cap: Some(40_000),
                }),
            ),
        ]
    }

    /// The contract on [`FlowSender`]: each of the six transports, run to
    /// `is_done` through a first-packet loss, is offered ACKs (behind, at
    /// and past the end, with SACK blocks, ECE, timestamps and both TLT
    /// echo marks), NACKs, a CNP and every timer kind. None may emit an
    /// action or move a counter, and `into_stats` hands back those same
    /// counters.
    #[test]
    fn a_done_sender_is_inert() {
        use crate::testutil::{DropPlan, Harness};
        use netsim::packet::{SackBlock, TltMark};
        const BYTES: u64 = 60_000;
        let flow = FlowId(3);
        let acks = [0, 14_400, BYTES, BYTES + 1_000]
            .into_iter()
            .flat_map(|seq| {
                [
                    TltMark::None,
                    TltMark::ImportantEcho,
                    TltMark::ImportantClockEcho,
                ]
                .map(|mark| {
                    let mut ack = Packet::ack(flow, seq);
                    ack.mark = mark;
                    ack.ece = true;
                    ack.ts_echo = SimTime::from_us(1);
                    ack.sack = vec![SackBlock {
                        start: seq + 1_000,
                        end: seq + 3_000,
                    }];
                    ack
                })
            });
        let nacks = [0, BYTES / 2, BYTES].map(|seq| Packet::nack(flow, seq));
        let offers: Vec<Packet> = acks.chain(nacks).chain([Packet::cnp(flow)]).collect();
        let kinds = [
            TimerKind::Rto,
            TimerKind::Tlp,
            TimerKind::Pace,
            TimerKind::DcqcnAlpha,
            TimerKind::DcqcnIncrease,
        ];
        for (name, (mut tx, mut rx)) in six_transports(flow, BYTES) {
            let mut h = Harness::new(SimTime::from_us(4), DropPlan::data_once(0));
            let res = h.run(tx.as_mut(), rx.as_mut(), SimTime::from_secs(1));
            assert!(res.sender_done && res.receiver_complete, "{name} finished");
            assert!(tx.stats().data_pkts_sent > BYTES / 1_440, "{name} sent");
            let before = format!("{:?}", tx.stats());
            let mut actions = Vec::new();
            let mut ctx = Ctx {
                now: SimTime::from_ms(50),
                actions: &mut actions,
            };
            for pkt in &offers {
                tx.on_packet(pkt, &mut ctx);
            }
            for kind in kinds {
                tx.on_timer(kind, &mut ctx);
            }
            assert!(actions.is_empty(), "{name} acted: {actions:?}");
            assert!(tx.is_done(), "{name}");
            assert_eq!(format!("{:?}", tx.stats()), before, "{name} stats");
            assert_eq!(
                format!("{:?}", tx.into_stats()),
                before,
                "{name} into_stats"
            );
        }
    }
}
