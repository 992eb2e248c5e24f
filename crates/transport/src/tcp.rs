//! The window-based sender/receiver used by TCP NewReno, DCTCP, and HPCC.
//!
//! [`WindowSender`] is generic over a [`CongestionControl`] and implements
//! the machinery the paper's TCP-family experiments rely on:
//!
//! - SACK-based loss detection with duplicate-ACK threshold 1 (early
//!   retransmit; §5: out-of-order delivery is rare under ECMP),
//! - NewReno-style fast recovery (one hole retransmitted per arriving ACK),
//! - Linux-style RTO estimation with configurable RTO_min, fixed-RTO mode,
//!   and exponential backoff,
//! - optional Tail Loss Probe \[27\],
//! - optional window-based TLT (§5.1): important-packet marking, important
//!   ACK-clocking, and clock-echo suppression.
//!
//! [`TcpReceiver`] acknowledges every data packet immediately (datacenter
//! stacks run with quick ACKs), echoes CE marks (for DCTCP), SACK blocks,
//! sender timestamps (for RTT sampling), INT stacks (for HPCC), and TLT
//! important echoes.

use std::collections::VecDeque;

use eventsim::SimTime;
use netsim::packet::{FlowId, Packet, TltMark};
use tlt_core::{WindowTltReceiver, WindowTltSender};

use crate::buffer::{RecvBuffer, Scoreboard};
use crate::cc::{AckCtx, CongestionControl};
use crate::iface::{Ctx, FlowReceiver, FlowSender, SenderStats, TimerKind, TltMode};
use crate::rto::{RtoEstimator, RtoMode};

/// Maximum RTT reservoir entries kept per flow.
const RTT_RESERVOIR: usize = 64;

/// Configuration for a [`WindowSender`].
#[derive(Clone, Debug)]
pub struct WindowCfg {
    /// Flow identity stamped on every packet.
    pub flow: FlowId,
    /// Total payload bytes to transfer.
    pub flow_bytes: u64,
    /// Maximum segment size (payload bytes per packet).
    pub mss: u32,
    /// Initial congestion window in segments (Linux default: 10).
    pub init_cwnd_pkts: u32,
    /// RTO derivation mode.
    pub rto: RtoMode,
    /// Timer granularity used in the RTO formula.
    pub rto_granularity: SimTime,
    /// Enable Tail Loss Probe.
    pub tlp: bool,
    /// Minimum probe timeout for TLP (the paper uses 10 μs).
    pub min_pto: SimTime,
    /// Mark data packets ECN-capable (DCTCP).
    pub ecn_capable: bool,
    /// TLT mode (only `Off` or `Window` are valid here).
    pub tlt: TltMode,
    /// Maximum SACK blocks the peer reports (mirror of receiver config).
    pub max_sack_blocks: usize,
    /// Record per-segment delivery times (Figure 16); costs memory.
    pub collect_delivery: bool,
}

impl WindowCfg {
    /// A Linux-like default: MSS 1440, IW 10, 4 ms RTO_min, SACK, no TLP,
    /// TLT off.
    pub fn new(flow: FlowId, flow_bytes: u64) -> WindowCfg {
        WindowCfg {
            flow,
            flow_bytes,
            mss: 1440,
            init_cwnd_pkts: 10,
            rto: RtoMode::linux_default(),
            rto_granularity: SimTime::from_us(10),
            tlp: false,
            min_pto: SimTime::from_us(10),
            ecn_capable: false,
            tlt: TltMode::Off,
            max_sack_blocks: 8,
            collect_delivery: false,
        }
    }
}

/// A window-based sender parameterized by congestion control.
///
/// # Examples
///
/// ```
/// use transport::tcp::{WindowCfg, WindowSender, TcpReceiver};
/// use transport::cc::NewReno;
/// use transport::{Ctx, FlowSender};
/// use netsim::packet::FlowId;
/// use eventsim::SimTime;
///
/// let cfg = WindowCfg::new(FlowId(0), 10_000);
/// let mut tx = WindowSender::new(cfg.clone(), NewReno::new(cfg.mss, 10));
/// let mut actions = Vec::new();
/// tx.start(&mut Ctx { now: SimTime::ZERO, actions: &mut actions });
/// // 10 kB at MSS 1440 = 7 segments, all within the initial window.
/// let sends = actions.iter().filter(|a| matches!(a, transport::Action::Send(_))).count();
/// assert_eq!(sends, 7);
/// ```
pub struct WindowSender<C: CongestionControl> {
    cfg: WindowCfg,
    cc: C,
    snd_una: u64,
    snd_nxt: u64,
    scoreboard: Scoreboard,
    /// Highest byte retransmitted in the current recovery episode.
    high_rxt: u64,
    /// `Some(high_data)` while in fast recovery.
    recovery_until: Option<u64>,
    rto_est: RtoEstimator,
    backoff: u32,
    tlp_fired: bool,
    tlt: Option<WindowTltSender>,
    stats: SenderStats,
    /// First-transmission time per MSS-aligned segment (delivery tracking).
    seg_first_tx: Vec<SimTime>,
    rtt_sample_count: u64,
    /// Monotone transmission counter (TLT loss barrier).
    tx_counter: u64,
    /// Last *full* transmission order per in-window segment: a ring indexed
    /// by `segment - snd_una / mss`, 0 where none is recorded (orders start
    /// at 1). Reads and trims go by index, so nothing here has an iteration
    /// order to keep deterministic.
    tx_order: VecDeque<u64>,
    /// Order of the important packet currently in flight.
    last_important_order: u64,
    /// Barrier learned from the latest important echo: everything fully
    /// transmitted before this order and still unacked is lost (§5.1,
    /// "guaranteed fast loss detection" — FIFO paths).
    echo_barrier: Option<u64>,
    tracer: telemetry::Tracer,
}

impl<C: CongestionControl> WindowSender<C> {
    /// Creates a sender.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.tlt` is the rate-based mode (wrong layer) or the flow
    /// is empty.
    pub fn new(cfg: WindowCfg, cc: C) -> WindowSender<C> {
        assert!(cfg.flow_bytes > 0, "empty flow");
        assert!(cfg.mss > 0, "zero MSS");
        let tlt = match cfg.tlt {
            TltMode::Off => None,
            TltMode::Window(w) => Some(WindowTltSender::new(w)),
            TltMode::Rate(_) => panic!("rate-based TLT on a window transport"),
        };
        let segs = if cfg.collect_delivery {
            (cfg.flow_bytes).div_ceil(u64::from(cfg.mss)) as usize
        } else {
            0
        };
        WindowSender {
            rto_est: RtoEstimator::new(cfg.rto, cfg.rto_granularity),
            cc,
            snd_una: 0,
            snd_nxt: 0,
            scoreboard: Scoreboard::new(),
            high_rxt: 0,
            recovery_until: None,
            backoff: 0,
            tlp_fired: false,
            tlt,
            stats: SenderStats::default(),
            seg_first_tx: vec![SimTime::MAX; segs],
            rtt_sample_count: 0,
            tx_counter: 0,
            tx_order: VecDeque::new(),
            last_important_order: 0,
            echo_barrier: None,
            tracer: telemetry::Tracer::off(),
            cfg,
        }
    }

    /// Immutable access to the congestion controller (for tests/metrics).
    pub fn cc(&self) -> &C {
        &self.cc
    }

    /// Sender's current cumulative-ACK point.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Sender's next new sequence number.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    fn flight(&self) -> u64 {
        (self.snd_nxt - self.snd_una)
            .saturating_sub(self.scoreboard.sacked_bytes_above(self.snd_una))
    }

    fn in_recovery(&self) -> bool {
        self.recovery_until.is_some()
    }

    fn tlt_enabled(&self) -> bool {
        self.tlt.is_some()
    }

    fn emit_data(&mut self, seq: u64, len: u32, is_retx: bool, more_hint: bool, ctx: &mut Ctx) {
        let mut pkt = Packet::data(self.cfg.flow, seq, len);
        pkt.is_retx = is_retx;
        pkt.ecn_capable = self.cfg.ecn_capable;
        pkt.ts = ctx.now;
        pkt.is_tail = seq + u64::from(len) >= self.cfg.flow_bytes;
        if let Some(tlt) = &mut self.tlt {
            pkt.mark = tlt.mark_data(more_hint);
        }
        pkt.colorize(self.tlt_enabled());
        if self.cfg.collect_delivery {
            let idx = (seq / u64::from(self.cfg.mss)) as usize;
            if idx < self.seg_first_tx.len() && self.seg_first_tx[idx] == SimTime::MAX {
                self.seg_first_tx[idx] = ctx.now;
            }
        }
        self.note_transmission(seq, len, pkt.mark.is_important());
        self.stats.data_pkts_sent += 1;
        self.stats.bytes_sent += u64::from(len);
        if pkt.mark.is_important() {
            self.stats.important_pkts += 1;
        } else {
            self.stats.unimportant_pkts += 1;
        }
        if self.tlt_enabled() {
            let important = pkt.mark.is_important();
            self.tracer
                .emit(ctx.now, || telemetry::TraceEvent::TltMark {
                    flow: self.cfg.flow.0,
                    seq,
                    important,
                });
        }
        ctx.send(pkt);
    }

    /// End of the MSS-grid segment containing `seq`, clipped to the flow.
    fn seg_grid_end(&self, seq: u64) -> u64 {
        let mss = u64::from(self.cfg.mss);
        ((seq / mss + 1) * mss).min(self.cfg.flow_bytes)
    }

    /// Records a transmission for the TLT loss barrier. Only transmissions
    /// that cover the remainder of their segment count (a 1-byte clocking
    /// probe does not "refresh" its segment).
    fn note_transmission(&mut self, seq: u64, len: u32, important: bool) {
        self.tx_counter += 1;
        if self.tlt.is_some() && seq + u64::from(len) >= self.seg_grid_end(seq) {
            let mss = u64::from(self.cfg.mss);
            let slot = (seq / mss - self.snd_una / mss) as usize;
            if slot >= self.tx_order.len() {
                self.tx_order.resize(slot + 1, 0);
            }
            self.tx_order[slot] = self.tx_counter;
            debug_assert!(
                self.tx_order.len() as u64 <= self.snd_nxt.div_ceil(mss) - self.snd_una / mss,
                "tx_order outgrew the in-flight window"
            );
        }
        if important {
            self.last_important_order = self.tx_counter;
        }
    }

    /// Order of the last full transmission of the segment holding `seq`, if
    /// one is recorded and the segment is not yet wholly acknowledged.
    fn order_of(&self, seq: u64) -> Option<u64> {
        let mss = u64::from(self.cfg.mss);
        let slot = (seq / mss).checked_sub(self.snd_una / mss)?;
        self.tx_order
            .get(slot as usize)
            .copied()
            .filter(|&o| o != 0)
    }

    /// The first segment TLT believes lost: a SACK hole above `high_rxt`,
    /// or — using the important-echo barrier — a segment fully transmitted
    /// before the echoed important packet and still unaccounted for.
    fn tlt_lost_segment(&self) -> Option<(u64, u64)> {
        if let Some(h) = self.scoreboard.first_hole(self.snd_una.max(self.high_rxt)) {
            return Some(h);
        }
        let barrier = self.echo_barrier?;
        let sent_before = |seq: u64| self.order_of(seq).is_some_and(|o| o < barrier);
        // A hole already retransmitted (below high_rxt) whose retransmission
        // predates the barrier was lost again.
        if let Some((hs, he)) = self.scoreboard.first_hole(self.snd_una) {
            if sent_before(hs) {
                return Some((hs, he));
            }
        } else if self.snd_una < self.snd_nxt && sent_before(self.snd_una) {
            // No SACK information: the first unacked segment is the suspect.
            return Some((
                self.snd_una,
                self.seg_grid_end(self.snd_una).min(self.snd_nxt),
            ));
        }
        None
    }

    /// Sends as much new data as the window allows.
    fn try_send_new(&mut self, ctx: &mut Ctx) {
        loop {
            if self.snd_nxt >= self.cfg.flow_bytes {
                return;
            }
            let len = u64::from(self.cfg.mss).min(self.cfg.flow_bytes - self.snd_nxt) as u32;
            let flight = self.flight();
            if flight > 0 && flight + u64::from(len) > self.cc.cwnd() {
                return;
            }
            let seq = self.snd_nxt;
            self.snd_nxt += u64::from(len);
            // Can another segment follow immediately? (drives TLT's
            // last-packet-of-initial-window marking).
            let more = self.snd_nxt < self.cfg.flow_bytes
                && self.flight() + u64::from(self.cfg.mss) <= self.cc.cwnd();
            self.emit_data(seq, len, false, more, ctx);
        }
    }

    /// Retransmits the first un-SACKed hole above `high_rxt`, bypassing the
    /// congestion window (fast retransmit / NewReno partial-ACK behavior).
    fn retransmit_one_hole(&mut self, ctx: &mut Ctx) -> bool {
        let from = self.snd_una.max(self.high_rxt);
        let Some((hs, he)) = self.scoreboard.first_hole(from) else {
            return false;
        };
        let len = u64::from(self.cfg.mss).min(he - hs) as u32;
        self.high_rxt = hs + u64::from(len);
        self.stats.fast_retx += 1;
        self.tracer
            .emit(ctx.now, || telemetry::TraceEvent::FastRetx {
                flow: self.cfg.flow.0,
                seq: hs,
            });
        self.emit_data(hs, len, true, false, ctx);
        true
    }

    fn record_rtt(&mut self, rtt: SimTime) {
        self.rto_est.on_sample(rtt);
        self.stats.rto_max = self.stats.rto_max.max(self.rto_est.rto());
        // Reservoir: keep the first RTT_RESERVOIR, then thin out.
        self.rtt_sample_count += 1;
        if self.stats.rtt_samples.len() < RTT_RESERVOIR {
            self.stats.rtt_samples.push(rtt);
        } else if self.rtt_sample_count.is_multiple_of(16) {
            let idx = (self.rtt_sample_count / 16) as usize % RTT_RESERVOIR;
            self.stats.rtt_samples[idx] = rtt;
        }
    }

    fn arm_timers(&mut self, ctx: &mut Ctx) {
        if self.is_done() {
            ctx.cancel_timer(TimerKind::Rto);
            ctx.cancel_timer(TimerKind::Tlp);
            return;
        }
        let rto = self.rto_est.rto_backed_off(self.backoff);
        ctx.set_timer(TimerKind::Rto, ctx.now + rto);
        if self.cfg.tlp && !self.tlp_fired && !self.in_recovery() && self.snd_una < self.snd_nxt {
            let srtt = self.rto_est.srtt().unwrap_or(rto);
            let pto = SimTime::from_ns(2 * srtt.as_ns()).max(self.cfg.min_pto);
            ctx.set_timer(TimerKind::Tlp, ctx.now + pto);
        } else {
            ctx.cancel_timer(TimerKind::Tlp);
        }
    }

    /// Injects an important ACK-clocking packet if TLT demands one (§5.1).
    fn maybe_clock(&mut self, ctx: &mut Ctx) {
        if self.is_done() || self.snd_una >= self.cfg.flow_bytes {
            return;
        }
        if !self.tlt.as_ref().is_some_and(WindowTltSender::armed) {
            return;
        }
        let lost = self.tlt_lost_segment();
        let tlt = self.tlt.as_mut().expect("checked above");
        let Some(clock) = tlt.take_clocking(lost.is_some(), self.cfg.mss) else {
            return;
        };
        // Choose the payload: the first lost segment (fast recovery) or the
        // first unacked byte(s) (minimal footprint).
        let (seq, len) = match (clock.from_lost, lost) {
            (true, Some((hs, he))) => (hs, u64::from(clock.bytes).min(he - hs) as u32),
            _ => {
                let avail = self.cfg.flow_bytes - self.snd_una;
                (self.snd_una, u64::from(clock.bytes).min(avail) as u32)
            }
        };
        if clock.from_lost {
            self.high_rxt = self.high_rxt.max(seq + u64::from(len));
            self.stats.fast_retx += 1;
            self.tracer
                .emit(ctx.now, || telemetry::TraceEvent::FastRetx {
                    flow: self.cfg.flow.0,
                    seq,
                });
        }
        let mut pkt = Packet::data(self.cfg.flow, seq, len);
        pkt.is_retx = true;
        pkt.ecn_capable = self.cfg.ecn_capable;
        pkt.ts = ctx.now;
        pkt.is_tail = seq + u64::from(len) >= self.cfg.flow_bytes;
        pkt.mark = TltMark::ImportantClockData;
        pkt.colorize(true);
        self.tracer
            .emit(ctx.now, || telemetry::TraceEvent::TltMark {
                flow: self.cfg.flow.0,
                seq,
                important: true,
            });
        self.note_transmission(seq, len, true);
        self.stats.data_pkts_sent += 1;
        self.stats.clocking_pkts += 1;
        self.stats.clocking_bytes += u64::from(len);
        self.stats.important_pkts += 1;
        ctx.send(pkt);
    }

    fn advance_una(&mut self, new_una: u64, now: SimTime) {
        debug_assert!(new_una >= self.snd_una);
        if self.cfg.collect_delivery && new_una > self.snd_una {
            let mss = u64::from(self.cfg.mss);
            let first = self.snd_una / mss;
            let last = new_una.div_ceil(mss).min(self.seg_first_tx.len() as u64);
            for idx in first..last {
                // Only segments now *fully* covered.
                let seg_end = ((idx + 1) * mss).min(self.cfg.flow_bytes);
                if seg_end <= new_una {
                    let t0 = self.seg_first_tx[idx as usize];
                    if t0 != SimTime::MAX {
                        self.stats.delivery_samples.push(now.saturating_sub(t0));
                    }
                }
            }
        }
        if !self.tx_order.is_empty() {
            // Orders of wholly acknowledged segments are never queried again.
            let mss = u64::from(self.cfg.mss);
            let acked = (new_una / mss - self.snd_una / mss) as usize;
            self.tx_order.drain(..acked.min(self.tx_order.len()));
        }
        self.snd_una = new_una;
        self.scoreboard.on_cumulative_ack(new_una);
        self.high_rxt = self.high_rxt.max(new_una);
    }
}

impl<C: CongestionControl> FlowSender for WindowSender<C> {
    fn start(&mut self, ctx: &mut Ctx) {
        self.try_send_new(ctx);
        self.arm_timers(ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        if self.is_done() {
            return;
        }
        // TLT layer inspects first: clock echoes that would read as
        // duplicate ACKs are consumed here (Appendix A). Any arriving ACK
        // still refreshes the RTO — the path is demonstrably alive, and
        // firing a timeout mid-clocking would defeat TLT's purpose.
        let mut deliver = true;
        if let Some(tlt) = &mut self.tlt {
            deliver = tlt.on_ack(pkt.mark, pkt.seq, self.snd_una) == tlt_core::AckVerdict::Deliver;
            if matches!(
                pkt.mark,
                TltMark::ImportantEcho | TltMark::ImportantClockEcho
            ) {
                // FIFO barrier: everything fully sent before the echoed
                // important packet and still unaccounted for is lost.
                self.echo_barrier = Some(self.last_important_order);
                // That includes retransmissions below `high_rxt`: when the
                // echo proves a hole we already re-sent is still missing,
                // re-open recovery from `snd_una` so every subsequent ACK
                // retries a hole (otherwise recovery degrades to one MSS
                // per clocking round-trip — the Figure 3(b) pathology).
                if let Some((hs, _)) = self.scoreboard.first_hole(self.snd_una) {
                    let lost_again = self
                        .order_of(hs)
                        .is_some_and(|o| o < self.last_important_order);
                    if lost_again && hs < self.high_rxt {
                        self.high_rxt = self.snd_una;
                    }
                }
            }
        }

        if deliver {
            // RTT sample from the echoed timestamp.
            if pkt.ts_echo != SimTime::ZERO {
                self.record_rtt(ctx.now.saturating_sub(pkt.ts_echo));
            }
            for b in &pkt.sack {
                self.scoreboard.add_block(*b);
            }
            let newly_acked = pkt.seq.saturating_sub(self.snd_una);
            if newly_acked > 0 {
                self.advance_una(pkt.seq, ctx.now);
                self.backoff = 0;
                self.tlp_fired = false;
            }
            let ack_ctx = AckCtx {
                newly_acked,
                ece: pkt.ece,
                snd_una: self.snd_una,
                snd_nxt: self.snd_nxt,
                flight: self.flight(),
                now: ctx.now,
                pkt,
            };
            self.cc.on_ack(&ack_ctx);

            // Exit recovery once the loss point is fully acknowledged.
            if let Some(until) = self.recovery_until {
                if self.snd_una >= until {
                    self.recovery_until = None;
                }
            }
            // Loss detection: any hole below the highest SACK (dupACK
            // threshold 1).
            if self.scoreboard.has_holes(self.snd_una) {
                if !self.in_recovery() {
                    self.recovery_until = Some(self.snd_nxt);
                    self.cc.on_loss(self.flight());
                }
                // One retransmission per ACK sustains recovery.
                self.retransmit_one_hole(ctx);
            }
            self.try_send_new(ctx);
        }

        self.maybe_clock(ctx);
        self.arm_timers(ctx);
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
        if self.is_done() {
            return;
        }
        match kind {
            TimerKind::Rto => {
                self.stats.timeouts += 1;
                self.stats.last_rto_seq = self.snd_una;
                self.tracer
                    .emit(ctx.now, || telemetry::TraceEvent::Timeout {
                        flow: self.cfg.flow.0,
                        seq: self.snd_una,
                    });
                self.backoff = (self.backoff + 1).min(16);
                self.cc.on_timeout(self.flight());
                self.recovery_until = None;
                self.high_rxt = self.snd_una;
                self.tlp_fired = false;
                // Retransmit the first unacked segment.
                let len = u64::from(self.cfg.mss).min(self.cfg.flow_bytes - self.snd_una) as u32;
                if len > 0 {
                    self.stats.rto_retx += 1;
                    self.emit_data(self.snd_una, len, true, false, ctx);
                }
                self.arm_timers(ctx);
            }
            TimerKind::Tlp => {
                if self.snd_una < self.snd_nxt && !self.in_recovery() {
                    self.tlp_fired = true;
                    if self.snd_nxt < self.cfg.flow_bytes {
                        // Probe with new data when available.
                        let len =
                            u64::from(self.cfg.mss).min(self.cfg.flow_bytes - self.snd_nxt) as u32;
                        let seq = self.snd_nxt;
                        self.snd_nxt += u64::from(len);
                        self.emit_data(seq, len, false, false, ctx);
                    } else {
                        // Re-send the last segment.
                        let len = u64::from(self.cfg.mss).min(self.snd_nxt - self.snd_una) as u32;
                        let seq = self.snd_nxt - u64::from(len);
                        self.stats.fast_retx += 1;
                        self.tracer
                            .emit(ctx.now, || telemetry::TraceEvent::FastRetx {
                                flow: self.cfg.flow.0,
                                seq,
                            });
                        self.emit_data(seq, len, true, false, ctx);
                    }
                }
                self.arm_timers(ctx);
            }
            _ => {}
        }
    }

    fn is_done(&self) -> bool {
        self.snd_una >= self.cfg.flow_bytes
    }

    fn stats(&self) -> &SenderStats {
        &self.stats
    }

    fn into_stats(self: Box<Self>) -> SenderStats {
        self.stats
    }

    fn set_tracer(&mut self, tracer: telemetry::Tracer) {
        self.tracer = tracer;
    }
}

/// The window-transport receiver: immediate per-packet (S)ACKs.
pub struct TcpReceiver {
    flow: FlowId,
    buf: RecvBuffer,
    tlt: Option<WindowTltReceiver>,
    max_sack_blocks: usize,
}

impl TcpReceiver {
    /// Creates a receiver expecting `flow_bytes` bytes. `tlt_enabled`
    /// activates important-echo generation.
    pub fn new(
        flow: FlowId,
        flow_bytes: u64,
        tlt_enabled: bool,
        max_sack_blocks: usize,
    ) -> TcpReceiver {
        TcpReceiver {
            flow,
            buf: RecvBuffer::new(flow_bytes),
            tlt: tlt_enabled.then(WindowTltReceiver::new),
            max_sack_blocks,
        }
    }
}

impl FlowReceiver for TcpReceiver {
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        if let Some(tlt) = &mut self.tlt {
            tlt.on_data(pkt.mark);
        }
        self.buf.insert(pkt.seq, pkt.seq_end());
        let mut ack = Packet::ack(self.flow, self.buf.cumulative());
        ack.sack = self.buf.sack_blocks(self.max_sack_blocks);
        ack.ece = pkt.ce;
        ack.ts = ctx.now;
        ack.ts_echo = pkt.ts;
        if !pkt.int_stack.is_empty() {
            ack.int_stack = pkt.int_stack.clone();
        }
        if let Some(tlt) = &mut self.tlt {
            ack.mark = tlt.mark_for_ack();
        }
        ack.colorize(self.tlt.is_some());
        ctx.send(ack);
    }

    fn bytes_complete(&self) -> u64 {
        self.buf.cumulative()
    }

    fn is_complete(&self) -> bool {
        self.buf.is_complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{Dctcp, NewReno};
    use crate::testutil::{DropPlan, Harness};
    use tlt_core::WindowTltConfig;

    fn cfg(bytes: u64) -> WindowCfg {
        let mut c = WindowCfg::new(FlowId(1), bytes);
        c.rto = RtoMode::Estimated {
            min: SimTime::from_ms(4),
        };
        c
    }

    fn tlt_cfg(bytes: u64) -> WindowCfg {
        let mut c = cfg(bytes);
        c.tlt = TltMode::Window(WindowTltConfig::default());
        c
    }

    fn run_tcp(c: WindowCfg, plan: DropPlan) -> (crate::testutil::RunResult, SenderStats) {
        let tlt_on = c.tlt.enabled();
        let mut tx = WindowSender::new(c.clone(), NewReno::new(c.mss, c.init_cwnd_pkts));
        let mut rx = TcpReceiver::new(c.flow, c.flow_bytes, tlt_on, 8);
        let mut h = Harness::new(SimTime::from_us(40), plan);
        let res = h.run(&mut tx, &mut rx, SimTime::from_secs(10));
        let stats = tx.stats().clone();
        (res, stats)
    }

    #[test]
    fn lossless_transfer_completes_without_retx() {
        let (res, stats) = run_tcp(cfg(100_000), DropPlan::none());
        assert!(res.receiver_complete);
        assert!(res.sender_done);
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.fast_retx, 0);
        assert_eq!(stats.bytes_sent, 100_000);
    }

    #[test]
    fn single_packet_flow() {
        let (res, stats) = run_tcp(cfg(100), DropPlan::none());
        assert!(res.receiver_complete);
        assert_eq!(stats.data_pkts_sent, 1);
    }

    #[test]
    fn middle_loss_recovers_by_fast_retransmit() {
        // Drop the 3rd data packet's first transmission: SACKs from later
        // packets trigger early retransmit; no timeout.
        let plan = DropPlan::data_once(2 * 1440);
        let (res, stats) = run_tcp(cfg(20_000), plan);
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 0, "fast recovery, not RTO");
        assert_eq!(stats.fast_retx, 1);
        assert!(
            res.completion_time < SimTime::from_ms(2),
            "no 4ms RTO stall: {}",
            res.completion_time
        );
    }

    #[test]
    fn tail_loss_times_out_without_tlt() {
        // Drop the last packet once: no later packets, no SACKs -> RTO.
        let flow = 20_000u64;
        let last_seq = (flow - 1) / 1440 * 1440;
        let (res, stats) = run_tcp(cfg(flow), DropPlan::data_once(last_seq));
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 1, "tail loss costs a timeout");
        assert!(
            res.completion_time >= SimTime::from_ms(4),
            "paid the 4ms RTO_min: {}",
            res.completion_time
        );
    }

    #[test]
    fn tail_loss_recovered_by_tlp_probe() {
        let flow = 20_000u64;
        let last_seq = (flow - 1) / 1440 * 1440;
        let mut c = cfg(flow);
        c.tlp = true;
        let (res, stats) = run_tcp(c, DropPlan::data_once(last_seq));
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 0, "TLP converts the RTO into a probe");
        assert!(res.completion_time < SimTime::from_ms(4));
    }

    #[test]
    fn tail_loss_recovered_by_tlt_clocking() {
        // The headline mechanism: with TLT, the tail loss is detected via
        // the important echo and repaired by important ACK-clocking.
        let flow = 20_000u64;
        let last_seq = (flow - 1) / 1440 * 1440;
        let (res, stats) = run_tcp(tlt_cfg(flow), DropPlan::data_once(last_seq));
        assert!(res.receiver_complete, "flow completes");
        assert_eq!(stats.timeouts, 0, "TLT: no timeout on tail loss");
        assert!(
            res.completion_time < SimTime::from_ms(1),
            "recovered within RTTs: {}",
            res.completion_time
        );
        assert!(stats.clocking_pkts > 0, "clocking actually fired");
    }

    #[test]
    fn whole_window_loss_recovered_by_tlt() {
        // Drop every first transmission of the initial window except the
        // (important) last packet: the echo detects the losses.
        let flow = 8 * 1440u64;
        let mut plan = DropPlan::none();
        for i in 0..7 {
            plan.drop_data_once(i * 1440);
        }
        let (res, stats) = run_tcp(tlt_cfg(flow), plan);
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 0, "TLT: no timeout even for 7/8 lost");
    }

    #[test]
    fn whole_window_loss_times_out_without_tlt() {
        let flow = 8 * 1440u64;
        let mut plan = DropPlan::none();
        for i in 0..8 {
            plan.drop_data_once(i * 1440);
        }
        let (res, stats) = run_tcp(cfg(flow), plan);
        assert!(res.receiver_complete);
        assert!(stats.timeouts >= 1);
    }

    #[test]
    fn retransmission_loss_recovered_by_tlt() {
        // Drop a middle packet twice (original + fast retransmission): the
        // clocking packet carries the lost MSS as ImportantClockData.
        let plan = DropPlan::data_n_times(2 * 1440, 2);
        let (res, stats) = run_tcp(tlt_cfg(20_000), plan);
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 0, "TLT recovers lost retransmissions");
    }

    #[test]
    fn retransmission_loss_times_out_without_tlt() {
        let plan = DropPlan::data_n_times(2 * 1440, 2);
        let (res, stats) = run_tcp(cfg(20_000), plan);
        assert!(res.receiver_complete);
        assert!(stats.timeouts >= 1, "lost retransmission needs RTO");
    }

    #[test]
    fn fixed_rto_mode_times_out_quickly() {
        let flow = 20_000u64;
        let last_seq = (flow - 1) / 1440 * 1440;
        let mut c = cfg(flow);
        c.rto = RtoMode::Fixed(SimTime::from_us(160));
        let (res, stats) = run_tcp(c, DropPlan::data_once(last_seq));
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 1);
        assert!(
            res.completion_time < SimTime::from_ms(1),
            "160us RTO recovers fast: {}",
            res.completion_time
        );
    }

    #[test]
    fn exponential_backoff_on_repeated_timeouts() {
        // Drop the only packet 3 times; fixed 200us RTO doubles each time.
        let mut c = cfg(1000);
        c.rto = RtoMode::Fixed(SimTime::from_us(200));
        let (res, stats) = run_tcp(c, DropPlan::data_n_times(0, 3));
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 3);
        // 200 + 400 + 800 = 1400us of backoff plus delivery.
        assert!(res.completion_time >= SimTime::from_us(1400));
    }

    #[test]
    fn dctcp_transfer_with_ce_marks_completes() {
        let c = cfg(100_000);
        let mut tx = WindowSender::new(c.clone(), Dctcp::new(c.mss, c.init_cwnd_pkts));
        let mut rx = TcpReceiver::new(c.flow, c.flow_bytes, false, 8);
        let mut h = Harness::new(SimTime::from_us(40), DropPlan::none());
        h.mark_ce_every = 2; // CE-mark every other data packet
        let res = h.run(&mut tx, &mut rx, SimTime::from_secs(10));
        assert!(res.receiver_complete);
        assert!(tx.cc().alpha() > 0.0);
    }

    #[test]
    fn rtt_samples_and_rto_tracked() {
        let (_, stats) = run_tcp(cfg(100_000), DropPlan::none());
        assert!(!stats.rtt_samples.is_empty());
        // One-way delay 40us -> RTT 80us.
        let rtt = stats.rtt_samples[0];
        assert_eq!(rtt, SimTime::from_us(80));
        assert!(stats.rto_max >= SimTime::from_ms(4));
    }

    #[test]
    fn delivery_samples_collected_when_enabled() {
        let mut c = cfg(20_000);
        c.collect_delivery = true;
        let (res, stats) = run_tcp(c, DropPlan::data_once(0));
        assert!(res.receiver_complete);
        assert_eq!(stats.delivery_samples.len(), 14, "one per segment");
        // The dropped first segment took longer than one RTT.
        assert!(stats.delivery_samples[0] > SimTime::from_us(80));
        // A clean segment took about one RTT.
        assert_eq!(stats.delivery_samples[13], SimTime::from_us(80));
    }

    #[test]
    fn tlt_marks_exactly_one_important_per_window_exchange() {
        let (res, stats) = run_tcp(tlt_cfg(100_000), DropPlan::none());
        assert!(res.receiver_complete);
        assert!(stats.important_pkts > 0);
        // Importants are a small fraction of a lossless bulk transfer:
        // roughly one per RTT, not one per packet.
        assert!(
            stats.important_pkts < stats.unimportant_pkts,
            "important {} vs unimportant {}",
            stats.important_pkts,
            stats.unimportant_pkts
        );
    }

    #[test]
    fn tlt_masking_two_packet_flow() {
        // §5.3-adjacent: 2-packet flow, first (unimportant) packet lost.
        // The echo of the second (important) packet reveals the hole via
        // SACK, and the retransmission goes out marked important.
        let plan = DropPlan::data_once(0);
        let (res, stats) = run_tcp(tlt_cfg(2 * 1440), plan);
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 0);
    }

    #[test]
    fn lost_acks_are_covered_by_cumulative_acking() {
        // Dropping several ACKs costs nothing: later cumulative ACKs carry
        // the same information, so no retransmission and no timeout.
        let mut plan = DropPlan::none();
        for ack in [1440u64, 2880, 5760] {
            plan.drop_ack_once(ack);
        }
        let (res, stats) = run_tcp(cfg(20_000), plan);
        assert!(res.receiver_complete);
        assert!(res.sender_done);
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.fast_retx, 0, "no spurious retransmissions");
        // 14 data packets + 14 ACKs minus the 3 dropped ACKs.
        assert_eq!(res.delivered_pkts, 14 + 14 - 3);
    }

    #[test]
    fn lost_important_echo_falls_back_to_rto() {
        // If the echo of the (important) tail ACK itself is lost along with
        // everything that could supersede it, TLT cannot help — §5: "when
        // important packets are lost ... performance falls back to the
        // underlying transport".
        let flow = 2 * 1440u64;
        let mut plan = DropPlan::data_once(1440); // tail data (important)
        plan.drop_data_once(1440); // and its retransmission
        plan.drop_data_once(1440); // and the next
        let (res, stats) = run_tcp(tlt_cfg(flow), plan);
        assert!(res.receiver_complete, "RTO backstop still completes");
        assert!(stats.timeouts >= 1);
    }

    #[test]
    fn receiver_echoes_ce_and_timestamps() {
        let mut rx = TcpReceiver::new(FlowId(9), 2000, false, 8);
        let mut actions = Vec::new();
        let mut ctx = Ctx {
            now: SimTime::from_us(100),
            actions: &mut actions,
        };
        let mut data = Packet::data(FlowId(9), 0, 1000);
        data.ce = true;
        data.ts = SimTime::from_us(60);
        rx.on_packet(&data, &mut ctx);
        let crate::iface::Action::Send(ack) = &actions[0] else {
            panic!("expected ack")
        };
        assert!(ack.ece);
        assert_eq!(ack.ts_echo, SimTime::from_us(60));
        assert_eq!(ack.seq, 1000);
        assert_eq!(rx.bytes_complete(), 1000);
        assert!(!rx.is_complete());
    }

    #[test]
    fn receiver_sacks_out_of_order_data() {
        let mut rx = TcpReceiver::new(FlowId(9), 5000, false, 8);
        let mut actions = Vec::new();
        let mut ctx = Ctx {
            now: SimTime::ZERO,
            actions: &mut actions,
        };
        rx.on_packet(&Packet::data(FlowId(9), 2000, 1000), &mut ctx);
        let crate::iface::Action::Send(ack) = &actions[0] else {
            panic!()
        };
        assert_eq!(ack.seq, 0, "nothing contiguous yet");
        assert_eq!(ack.sack.len(), 1);
        assert_eq!(ack.sack[0].start, 2000);
        assert_eq!(ack.sack[0].end, 3000);
    }

    /// The loss barrier end to end, on counters recorded while `tx_order`
    /// was a `BTreeMap`: segments 12 and 25 lose their fast retransmissions
    /// too, segment 25's third loss is followed by a 1-byte clocking probe
    /// that must not refresh its order, and the tail's clocking packet — an
    /// important one — is lost, which only the RTO repairs.
    #[test]
    fn tlt_loss_barrier_counters_are_pinned() {
        let mut plan = DropPlan::none();
        for (seg, losses) in [(12, 2), (13, 1), (25, 3), (39, 2)] {
            for _ in 0..losses {
                plan.drop_data_once(seg * 1440);
            }
        }
        let (res, stats) = run_tcp(tlt_cfg(40 * 1440), plan);
        assert!(res.receiver_complete && res.sender_done);
        assert_eq!(stats.fast_retx, 7);
        assert_eq!(stats.timeouts, 1);
        assert_eq!((stats.clocking_pkts, stats.clocking_bytes), (2, 1441));
        assert_eq!(stats.data_pkts_sent, 49);
        assert_eq!(res.completion_time, SimTime::from_us(4520));
    }

    #[test]
    fn order_of_sees_only_recorded_in_window_segments() {
        let c = tlt_cfg(40 * 1440);
        let mut tx = WindowSender::new(c.clone(), NewReno::new(c.mss, c.init_cwnd_pkts));
        let mut actions = Vec::new();
        let mut ctx = Ctx {
            now: SimTime::ZERO,
            actions: &mut actions,
        };
        tx.start(&mut ctx);
        // The initial window is segments 0..10, sent in order.
        assert_eq!(tx.order_of(0), Some(1));
        assert_eq!(tx.order_of(9 * 1440 + 7), Some(10));
        assert_eq!(tx.order_of(10 * 1440), None, "not sent yet");
        // A 1-byte probe takes an order and records none; a full
        // transmission two segments past the ring's end pads the skipped
        // one with "none recorded".
        tx.snd_nxt = 13 * 1440;
        tx.note_transmission(12 * 1440, 1, true);
        assert_eq!(tx.order_of(12 * 1440), None, "never fully sent");
        tx.note_transmission(12 * 1440, 1440, false);
        assert_eq!(tx.order_of(12 * 1440), Some(12));
        assert_eq!(tx.order_of(11 * 1440), None, "padding");
        // An ACK into segment 4 trims the four segments below it.
        tx.advance_una(4 * 1440 + 100, SimTime::ZERO);
        assert_eq!(tx.order_of(3 * 1440), None, "below the ring's base");
        assert_eq!(tx.order_of(4 * 1440), Some(5), "partly acked: kept");
        assert_eq!(tx.order_of(12 * 1440), Some(12));
        tx.advance_una(13 * 1440, SimTime::ZERO);
        assert_eq!(tx.order_of(12 * 1440), None, "trimmed past it");
        assert!(tx.tx_order.is_empty());
    }

    /// Any pattern of single-transmission drops is recovered; with TLT
    /// the transfer completes and (drops permitting) without timeouts.
    #[test]
    fn prop_recovery_under_random_drops() {
        for seed in 0u64..24 {
            let flow_bytes = 40_000u64;
            let mut plan = DropPlan::none();
            // Drop ~25% of first transmissions, pseudo-randomly.
            let mut x = (seed * 41 + 7).wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut seq = 0u64;
            while seq < flow_bytes {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 4 == 0 {
                    plan.drop_data_once(seq);
                }
                seq += 1440;
            }
            let (res, _) = run_tcp(cfg(flow_bytes), plan.clone());
            assert!(res.receiver_complete, "seed {seed}: baseline completes");
            let (res2, _) = run_tcp(tlt_cfg(flow_bytes), plan);
            assert!(res2.receiver_complete, "seed {seed}: TLT completes");
        }
    }
}
