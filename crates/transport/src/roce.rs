//! RoCE transports: DCQCN rate control with go-back-N, SACK, or IRN
//! recovery.
//!
//! DCQCN \[58\] is the rate-based congestion control of commercial RoCE NICs:
//! the receiver converts CE marks into Congestion Notification Packets
//! (CNPs); the sender maintains a current rate `Rc` and target rate `Rt`,
//! cutting multiplicatively on CNPs and recovering through fast-recovery /
//! additive / hyper increase stages driven by a timer and a byte counter.
//! Crucially for the paper, **DCQCN does not adjust its rate on packet
//! loss** (§4.2).
//!
//! Loss recovery is pluggable ([`RoceRecovery`]):
//!
//! - `GoBackN`: the commercial default — the receiver discards out-of-order
//!   packets and NACKs the expected sequence number; the sender rolls back.
//! - `Selective { window_cap: None }`: "DCQCN + SACK" in the paper — IRN's
//!   selective retransmission without the window cap.
//! - `Selective { window_cap: Some(bdp) }`: "DCQCN + IRN" \[43\] — selective
//!   retransmission plus a BDP-bounded static window and the IRN timeout
//!   pair (RTO_high, and RTO_low when few packets are in flight).
//!
//! Rate-based TLT (§5.2) marks the flow tail, every N-th packet, and the
//! first + last packet of each retransmission round. (The paper sketches a
//! window-style TLT variant for IRN; this implementation applies the
//! rate-based marking to all three RoCE flavors — the mechanism that
//! eliminates their timeouts, tail and retransmission-round protection, is
//! identical. DESIGN.md records the substitution.)

use eventsim::SimTime;
use netsim::packet::{FlowId, Packet, PacketKind};
use tlt_core::RateTltSender;

use crate::buffer::{RecvBuffer, Scoreboard};
use crate::iface::{Ctx, FlowReceiver, FlowSender, SenderStats, TimerKind, TltMode};

/// DCQCN rate-machine parameters (defaults follow the DCQCN paper and
/// common NIC settings).
#[derive(Clone, Copy, Debug)]
pub struct DcqcnParams {
    /// Port line rate (initial and maximum rate).
    pub line_rate_bps: u64,
    /// Minimum sending rate.
    pub min_rate_bps: u64,
    /// EWMA gain g for α.
    pub g: f64,
    /// α-decay interval (55 μs without CNPs).
    pub alpha_timer: SimTime,
    /// Rate-increase timer period.
    pub inc_timer: SimTime,
    /// Rate-increase byte counter.
    pub byte_counter: u64,
    /// Stage threshold F separating fast recovery / additive / hyper.
    pub f_stages: u32,
    /// Additive increase step.
    pub rai_bps: u64,
    /// Hyper increase step.
    pub rhai_bps: u64,
}

impl DcqcnParams {
    /// Defaults for a 40 Gbps port.
    pub fn for_line_rate(line_rate_bps: u64) -> DcqcnParams {
        DcqcnParams {
            line_rate_bps,
            min_rate_bps: 100_000_000,
            g: 1.0 / 256.0,
            alpha_timer: SimTime::from_us(55),
            inc_timer: SimTime::from_us(300),
            byte_counter: 10_000_000,
            f_stages: 5,
            rai_bps: 40_000_000,
            rhai_bps: 400_000_000,
        }
    }
}

/// The DCQCN rate machine (sender side).
///
/// # Examples
///
/// ```
/// use transport::roce::{Dcqcn, DcqcnParams};
///
/// let mut d = Dcqcn::new(DcqcnParams::for_line_rate(40_000_000_000));
/// assert_eq!(d.rate_bps(), 40_000_000_000);
/// d.on_cnp();
/// assert!(d.rate_bps() < 40_000_000_000, "CNP cuts the rate");
/// ```
#[derive(Clone, Debug)]
pub struct Dcqcn {
    p: DcqcnParams,
    rc: f64,
    rt: f64,
    alpha: f64,
    i_time: u32,
    i_byte: u32,
    bytes_acc: u64,
}

impl Dcqcn {
    /// Creates the machine at line rate.
    pub fn new(p: DcqcnParams) -> Dcqcn {
        Dcqcn {
            rc: p.line_rate_bps as f64,
            rt: p.line_rate_bps as f64,
            alpha: 1.0,
            i_time: 0,
            i_byte: 0,
            bytes_acc: 0,
            p,
        }
    }

    /// Current sending rate in bits per second.
    pub fn rate_bps(&self) -> u64 {
        self.rc as u64
    }

    /// Current α estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether the machine is fully recovered (timers can be parked).
    pub fn recovered(&self) -> bool {
        self.rc >= 0.999 * self.p.line_rate_bps as f64 && self.alpha < 0.01
    }

    /// Processes a congestion notification: α update + multiplicative cut.
    pub fn on_cnp(&mut self) {
        self.alpha = (1.0 - self.p.g) * self.alpha + self.p.g;
        self.rt = self.rc;
        self.rc = (self.rc * (1.0 - self.alpha / 2.0)).max(self.p.min_rate_bps as f64);
        self.i_time = 0;
        self.i_byte = 0;
        self.bytes_acc = 0;
    }

    /// α decay after `alpha_timer` without CNPs.
    pub fn on_alpha_timer(&mut self) {
        self.alpha *= 1.0 - self.p.g;
    }

    /// Rate-increase timer expiry.
    pub fn on_inc_timer(&mut self) {
        self.i_time += 1;
        self.increase();
    }

    /// Accounts sent bytes; byte-counter increase events may fire.
    pub fn on_bytes_sent(&mut self, bytes: u64) {
        self.bytes_acc += bytes;
        while self.bytes_acc >= self.p.byte_counter {
            self.bytes_acc -= self.p.byte_counter;
            self.i_byte += 1;
            self.increase();
        }
    }

    fn increase(&mut self) {
        let f = self.p.f_stages;
        if self.i_time > f && self.i_byte > f {
            // Hyper increase.
            self.rt += self.p.rhai_bps as f64;
        } else if self.i_time > f || self.i_byte > f {
            // Additive increase.
            self.rt += self.p.rai_bps as f64;
        }
        // Fast recovery (and every stage): Rc approaches Rt.
        self.rt = self.rt.min(self.p.line_rate_bps as f64);
        self.rc = ((self.rt + self.rc) / 2.0).min(self.p.line_rate_bps as f64);
    }
}

/// Loss-recovery flavor of a RoCE sender.
#[derive(Clone, Copy, Debug)]
pub enum RoceRecovery {
    /// Receiver NACKs the expected sequence; sender rolls back (vanilla).
    GoBackN,
    /// Receiver SACKs out-of-order data; sender retransmits holes. A
    /// `window_cap` of `Some(bdp)` gives IRN's BDP-FC static window.
    Selective {
        /// Maximum outstanding bytes, if bounded (IRN).
        window_cap: Option<u64>,
    },
}

/// Configuration of a [`RoceSender`].
#[derive(Clone, Debug)]
pub struct RoceCfg {
    /// Flow identity.
    pub flow: FlowId,
    /// Total payload bytes.
    pub flow_bytes: u64,
    /// Payload bytes per packet.
    pub mss: u32,
    /// Recovery flavor.
    pub recovery: RoceRecovery,
    /// DCQCN parameters.
    pub dcqcn: DcqcnParams,
    /// Static retransmission timeout (4 ms in the paper; 1930 μs for IRN).
    pub rto_high: SimTime,
    /// IRN's low timeout: `Some((rto_low, n))` fires after `rto_low` when
    /// fewer than `n` packets are in flight.
    pub rto_low: Option<(SimTime, u32)>,
    /// TLT mode (`Off` or `Rate`).
    pub tlt: TltMode,
    /// Mark data packets ECN-capable (they are, for DCQCN).
    pub ecn_capable: bool,
}

impl RoceCfg {
    /// Paper-style defaults for the given flavor at 40 Gbps.
    pub fn new(flow: FlowId, flow_bytes: u64, recovery: RoceRecovery) -> RoceCfg {
        RoceCfg {
            flow,
            flow_bytes,
            mss: 1000,
            recovery,
            dcqcn: DcqcnParams::for_line_rate(40_000_000_000),
            rto_high: SimTime::from_ms(4),
            rto_low: None,
            tlt: TltMode::Off,
            ecn_capable: true,
        }
    }
}

/// A rate-paced RoCE sender.
pub struct RoceSender {
    cfg: RoceCfg,
    dcqcn: Dcqcn,
    snd_una: u64,
    snd_nxt: u64,
    /// Highest byte ever transmitted (go-back-N retransmission marker).
    high_tx: u64,
    scoreboard: Scoreboard,
    /// Highest byte retransmitted in the current recovery episode.
    high_rxt: u64,
    /// Selective mode: resend unsacked data below this point.
    retx_limit: u64,
    next_send_at: SimTime,
    backoff: u32,
    tlt: Option<RateTltSender>,
    timers_parked: bool,
    stats: SenderStats,
    tracer: telemetry::Tracer,
}

impl RoceSender {
    /// Creates a sender.
    ///
    /// # Panics
    ///
    /// Panics if window-based TLT is requested (wrong layer) or the flow is
    /// empty.
    pub fn new(cfg: RoceCfg) -> RoceSender {
        assert!(cfg.flow_bytes > 0, "empty flow");
        let tlt = match cfg.tlt {
            TltMode::Off => None,
            TltMode::Rate(r) => Some(RateTltSender::new(r)),
            TltMode::Window(_) => panic!("window-based TLT on a rate transport"),
        };
        RoceSender {
            dcqcn: Dcqcn::new(cfg.dcqcn),
            snd_una: 0,
            snd_nxt: 0,
            high_tx: 0,
            scoreboard: Scoreboard::new(),
            high_rxt: 0,
            retx_limit: 0,
            next_send_at: SimTime::ZERO,
            backoff: 0,
            tlt,
            timers_parked: true,
            stats: SenderStats::default(),
            tracer: telemetry::Tracer::off(),
            cfg,
        }
    }

    /// The DCQCN rate machine (for tests/metrics).
    pub fn dcqcn(&self) -> &Dcqcn {
        &self.dcqcn
    }

    fn selective(&self) -> bool {
        matches!(self.cfg.recovery, RoceRecovery::Selective { .. })
    }

    fn flight(&self) -> u64 {
        (self.snd_nxt - self.snd_una)
            .saturating_sub(self.scoreboard.sacked_bytes_above(self.snd_una))
    }

    fn flight_pkts(&self) -> u32 {
        (self.flight() / u64::from(self.cfg.mss)) as u32
    }

    /// The next segment to transmit: a retransmission candidate first, then
    /// data at `snd_nxt`, honoring the IRN window cap. The final flag says
    /// whether the segment comes from the scoreboard (selective hole —
    /// `snd_nxt` untouched) or from the send cursor (advance `snd_nxt`).
    fn next_segment(&self) -> Option<(u64, u32, bool, bool)> {
        let mss = u64::from(self.cfg.mss);
        if self.selective() {
            let from = self.snd_una.max(self.high_rxt);
            let limit = self
                .scoreboard
                .highest_sacked()
                .unwrap_or(0)
                .max(self.retx_limit)
                .min(self.snd_nxt);
            if let Some((hs, he)) = self.scoreboard.first_unsacked_below(from, limit) {
                return Some((hs, mss.min(he - hs) as u32, true, false));
            }
        }
        if self.snd_nxt < self.cfg.flow_bytes {
            if let RoceRecovery::Selective {
                window_cap: Some(cap),
            } = self.cfg.recovery
            {
                if self.flight() + mss > cap && self.flight() > 0 {
                    return None;
                }
            }
            let len = mss.min(self.cfg.flow_bytes - self.snd_nxt) as u32;
            // Below the high-water mark this is a go-back-N re-send.
            return Some((self.snd_nxt, len, self.snd_nxt < self.high_tx, true));
        }
        None
    }

    fn emit(&mut self, seq: u64, len: u32, is_retx: bool, ctx: &mut Ctx) {
        let mut pkt = Packet::data(self.cfg.flow, seq, len);
        pkt.is_retx = is_retx;
        pkt.ecn_capable = self.cfg.ecn_capable;
        pkt.ts = ctx.now;
        pkt.is_tail = seq + u64::from(len) >= self.cfg.flow_bytes;
        if let Some(tlt) = &mut self.tlt {
            pkt.mark = tlt.mark_data(seq, seq + u64::from(len), self.cfg.flow_bytes, is_retx);
        }
        pkt.colorize(self.tlt.is_some());
        if pkt.mark.is_important() {
            self.stats.important_pkts += 1;
        } else {
            self.stats.unimportant_pkts += 1;
        }
        if self.tlt.is_some() {
            let important = pkt.mark.is_important();
            self.tracer
                .emit(ctx.now, || telemetry::TraceEvent::TltMark {
                    flow: self.cfg.flow.0,
                    seq,
                    important,
                });
        }
        self.stats.data_pkts_sent += 1;
        self.stats.bytes_sent += u64::from(len);
        if is_retx {
            self.stats.fast_retx += 1;
            self.tracer
                .emit(ctx.now, || telemetry::TraceEvent::FastRetx {
                    flow: self.cfg.flow.0,
                    seq,
                });
        }
        self.dcqcn.on_bytes_sent(u64::from(pkt.wire_size()));
        ctx.send(pkt);
    }

    /// Transmits as permitted by the pacer, then schedules the next tick.
    fn pump(&mut self, ctx: &mut Ctx) {
        while ctx.now >= self.next_send_at {
            let Some((seq, len, is_retx, from_cursor)) = self.next_segment() else {
                return; // idle: re-kicked by the next ACK/NACK
            };
            if from_cursor {
                self.snd_nxt = seq + u64::from(len);
                self.high_tx = self.high_tx.max(self.snd_nxt);
            } else {
                self.high_rxt = self.high_rxt.max(seq + u64::from(len));
            }
            let wire_bits = u64::from(netsim::packet::HEADER_BYTES + len) * 8;
            let gap = SimTime::from_ns(
                (wire_bits as u128 * 1_000_000_000 / self.dcqcn.rate_bps().max(1) as u128) as u64,
            );
            self.next_send_at = ctx.now + gap.max(SimTime::from_ns(1));
            self.emit(seq, len, is_retx, ctx);
        }
        if self.next_segment().is_some() {
            ctx.set_timer(TimerKind::Pace, self.next_send_at);
        }
    }

    fn current_rto(&self) -> SimTime {
        let base = match self.cfg.rto_low {
            Some((low, n)) if self.flight_pkts() < n => low,
            _ => self.cfg.rto_high,
        };
        SimTime::from_ns(base.as_ns().saturating_mul(1 << self.backoff.min(10)))
    }

    fn arm_rto(&mut self, ctx: &mut Ctx) {
        if self.is_done() {
            ctx.cancel_timer(TimerKind::Rto);
            ctx.cancel_timer(TimerKind::Pace);
        } else {
            ctx.set_timer(TimerKind::Rto, ctx.now + self.current_rto());
        }
    }

    fn arm_dcqcn_timers(&mut self, ctx: &mut Ctx) {
        if self.dcqcn.recovered() {
            if !self.timers_parked {
                ctx.cancel_timer(TimerKind::DcqcnAlpha);
                ctx.cancel_timer(TimerKind::DcqcnIncrease);
                self.timers_parked = true;
            }
        } else if self.timers_parked {
            ctx.set_timer(TimerKind::DcqcnAlpha, ctx.now + self.cfg.dcqcn.alpha_timer);
            ctx.set_timer(TimerKind::DcqcnIncrease, ctx.now + self.cfg.dcqcn.inc_timer);
            self.timers_parked = false;
        }
    }

    /// GBN: roll back to `e` and re-send everything up to the old high
    /// watermark.
    fn go_back(&mut self, e: u64) {
        if e >= self.snd_nxt {
            return;
        }
        self.snd_nxt = e.max(self.snd_una);
        if let Some(tlt) = &mut self.tlt {
            tlt.start_retx_round(self.high_tx);
        }
        // The pacer will now re-send from snd_nxt; packets below high_tx
        // count as retransmissions.
    }
}

impl FlowSender for RoceSender {
    fn start(&mut self, ctx: &mut Ctx) {
        self.next_send_at = ctx.now;
        self.pump(ctx);
        self.arm_rto(ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        if self.is_done() {
            return;
        }
        match pkt.kind {
            PacketKind::Ack => {
                if pkt.ts_echo != SimTime::ZERO && self.stats.rtt_samples.len() < 64 {
                    self.stats
                        .rtt_samples
                        .push(ctx.now.saturating_sub(pkt.ts_echo));
                }
                for b in &pkt.sack {
                    self.scoreboard.add_block(*b);
                }
                let progressed = pkt.seq > self.snd_una;
                if progressed {
                    self.snd_una = pkt.seq;
                    self.scoreboard.on_cumulative_ack(pkt.seq);
                    self.high_rxt = self.high_rxt.max(pkt.seq);
                    self.backoff = 0;
                }
                if self.selective() {
                    // New holes below the highest SACK are lost under
                    // dupACK threshold 1: open a retransmission round.
                    if let Some(hs) = self.scoreboard.highest_sacked() {
                        if hs > self.retx_limit && self.scoreboard.has_holes(self.snd_una) {
                            self.retx_limit = hs;
                            if let Some(tlt) = &mut self.tlt {
                                tlt.start_retx_round(hs);
                            }
                        }
                    }
                    // Round exhausted (everything below the limit already
                    // re-sent) yet this ACK advanced the window and holes
                    // remain: the round's unimportant retransmissions were
                    // lost in flight. Re-open the round — with TLT its
                    // first and last packets go out green, so each round
                    // closes at least two holes (the Figure 4 argument).
                    let limit = self
                        .scoreboard
                        .highest_sacked()
                        .unwrap_or(0)
                        .max(self.retx_limit)
                        .min(self.snd_nxt);
                    if progressed
                        && self.scoreboard.has_holes(self.snd_una)
                        && self
                            .scoreboard
                            .first_unsacked_below(self.snd_una.max(self.high_rxt), limit)
                            .is_none()
                    {
                        self.high_rxt = self.snd_una;
                        if let Some(tlt) = &mut self.tlt {
                            tlt.start_retx_round(limit);
                        }
                    }
                }
                self.pump(ctx);
                self.arm_rto(ctx);
            }
            PacketKind::Nack => {
                self.go_back(pkt.seq);
                self.pump(ctx);
                self.arm_rto(ctx);
            }
            PacketKind::Cnp => {
                self.dcqcn.on_cnp();
                // Restart the increase machinery.
                ctx.set_timer(TimerKind::DcqcnAlpha, ctx.now + self.cfg.dcqcn.alpha_timer);
                ctx.set_timer(TimerKind::DcqcnIncrease, ctx.now + self.cfg.dcqcn.inc_timer);
                self.timers_parked = false;
            }
            PacketKind::Data => {}
        }
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
        if self.is_done() {
            return;
        }
        match kind {
            TimerKind::Pace => self.pump(ctx),
            TimerKind::Rto => {
                self.stats.timeouts += 1;
                self.stats.last_rto_seq = self.snd_una;
                self.stats.rto_retx += 1;
                self.tracer
                    .emit(ctx.now, || telemetry::TraceEvent::Timeout {
                        flow: self.cfg.flow.0,
                        seq: self.snd_una,
                    });
                self.backoff = (self.backoff + 1).min(10);
                if self.selective() {
                    // Re-send everything unsacked.
                    self.retx_limit = self.retx_limit.max(self.snd_nxt);
                    self.high_rxt = self.snd_una;
                    if let Some(tlt) = &mut self.tlt {
                        tlt.start_retx_round(self.snd_nxt);
                    }
                } else {
                    self.go_back(self.snd_una);
                }
                self.next_send_at = ctx.now;
                self.pump(ctx);
                self.arm_rto(ctx);
            }
            TimerKind::DcqcnAlpha => {
                self.dcqcn.on_alpha_timer();
                self.timers_parked = true; // force re-evaluation
                self.arm_dcqcn_timers(ctx);
                if self.timers_parked {
                    // Keep only this timer slot clear; nothing to do.
                } else {
                    ctx.set_timer(TimerKind::DcqcnAlpha, ctx.now + self.cfg.dcqcn.alpha_timer);
                }
            }
            TimerKind::DcqcnIncrease => {
                self.dcqcn.on_inc_timer();
                if !self.dcqcn.recovered() {
                    ctx.set_timer(TimerKind::DcqcnIncrease, ctx.now + self.cfg.dcqcn.inc_timer);
                }
                // A rate increase may unblock the pacer sooner than the
                // previously scheduled tick; recompute conservatively.
                self.pump(ctx);
            }
            TimerKind::Tlp => {}
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

/// Interval between CNPs for a congested flow (Mellanox default: 50 μs).
const CNP_INTERVAL: SimTime = SimTime::from_us(50);

/// A RoCE receiver in go-back-N or selective (IRN/SACK) mode.
pub struct RoceReceiver {
    flow: FlowId,
    selective: bool,
    buf: RecvBuffer,
    /// GBN: next expected byte.
    expected: u64,
    /// GBN: a NACK for the current gap has been sent.
    nack_sent: bool,
    last_cnp: SimTime,
    sent_any_cnp: bool,
    tlt_enabled: bool,
    max_sack_blocks: usize,
}

impl RoceReceiver {
    /// Creates a receiver. `selective` buffers out-of-order data and SACKs;
    /// otherwise go-back-N semantics apply.
    pub fn new(flow: FlowId, flow_bytes: u64, selective: bool, tlt_enabled: bool) -> RoceReceiver {
        RoceReceiver {
            flow,
            selective,
            buf: RecvBuffer::new(flow_bytes),
            expected: 0,
            nack_sent: false,
            last_cnp: SimTime::ZERO,
            sent_any_cnp: false,
            tlt_enabled,
            max_sack_blocks: 8,
        }
    }

    fn maybe_cnp(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        if !pkt.ce {
            return;
        }
        if !self.sent_any_cnp || ctx.now.saturating_sub(self.last_cnp) >= CNP_INTERVAL {
            self.sent_any_cnp = true;
            self.last_cnp = ctx.now;
            let mut cnp = Packet::cnp(self.flow);
            cnp.colorize(self.tlt_enabled);
            ctx.send(cnp);
        }
    }
}

impl FlowReceiver for RoceReceiver {
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        self.maybe_cnp(pkt, ctx);
        if self.selective {
            self.buf.insert(pkt.seq, pkt.seq_end());
            let mut ack = Packet::ack(self.flow, self.buf.cumulative());
            ack.sack = self.buf.sack_blocks(self.max_sack_blocks);
            ack.ts = ctx.now;
            ack.ts_echo = pkt.ts;
            ack.colorize(self.tlt_enabled);
            ctx.send(ack);
        } else {
            // Go-back-N: only in-order data is accepted.
            if pkt.seq <= self.expected && pkt.seq_end() > self.expected {
                self.buf.insert(self.expected, pkt.seq_end());
                self.expected = pkt.seq_end();
                self.nack_sent = false;
                let mut ack = Packet::ack(self.flow, self.expected);
                ack.ts = ctx.now;
                ack.ts_echo = pkt.ts;
                ack.colorize(self.tlt_enabled);
                ctx.send(ack);
            } else if pkt.seq > self.expected {
                // Out of order: discard, NACK once per gap episode.
                if !self.nack_sent {
                    self.nack_sent = true;
                    let mut nack = Packet::nack(self.flow, self.expected);
                    nack.ts = ctx.now;
                    nack.colorize(self.tlt_enabled);
                    ctx.send(nack);
                }
            } else {
                // Stale duplicate: re-ACK.
                let mut ack = Packet::ack(self.flow, self.expected);
                ack.ts = ctx.now;
                ack.ts_echo = pkt.ts;
                ack.colorize(self.tlt_enabled);
                ctx.send(ack);
            }
        }
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
    use crate::testutil::{DropPlan, Harness};

    fn run_roce(cfg: RoceCfg, plan: DropPlan) -> (crate::testutil::RunResult, SenderStats) {
        let selective = matches!(cfg.recovery, RoceRecovery::Selective { .. });
        let tlt_on = cfg.tlt.enabled();
        let mut tx = RoceSender::new(cfg.clone());
        let mut rx = RoceReceiver::new(cfg.flow, cfg.flow_bytes, selective, tlt_on);
        let mut h = Harness::new(SimTime::from_us(4), plan);
        let res = h.run(&mut tx, &mut rx, SimTime::from_secs(1));
        (res, tx.stats().clone())
    }

    fn gbn_cfg(bytes: u64) -> RoceCfg {
        RoceCfg::new(FlowId(2), bytes, RoceRecovery::GoBackN)
    }

    fn sack_cfg(bytes: u64) -> RoceCfg {
        RoceCfg::new(
            FlowId(2),
            bytes,
            RoceRecovery::Selective { window_cap: None },
        )
    }

    fn irn_cfg(bytes: u64) -> RoceCfg {
        let mut c = RoceCfg::new(
            FlowId(2),
            bytes,
            RoceRecovery::Selective {
                window_cap: Some(40_000), // 8us RTT * 40Gbps
            },
        );
        c.rto_high = SimTime::from_us(1930);
        c.rto_low = Some((SimTime::from_us(100), 3));
        c
    }

    fn with_tlt(mut c: RoceCfg) -> RoceCfg {
        c.tlt = TltMode::Rate(tlt_core::RateTltConfig { every_n: Some(96) });
        c
    }

    #[test]
    fn gbn_lossless_transfer() {
        let (res, stats) = run_roce(gbn_cfg(50_000), DropPlan::none());
        assert!(res.receiver_complete);
        assert!(res.sender_done);
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.fast_retx, 0);
    }

    #[test]
    fn gbn_middle_loss_recovers_via_nack() {
        let (res, stats) = run_roce(gbn_cfg(50_000), DropPlan::data_once(10_000));
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 0, "NACK-triggered rollback, no RTO");
        assert!(stats.fast_retx > 0, "go-back-N re-sent data");
    }

    #[test]
    fn gbn_tail_loss_requires_timeout_without_tlt() {
        let flow = 50_000u64;
        let (res, stats) = run_roce(gbn_cfg(flow), DropPlan::data_once(49_000));
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 1, "tail loss invisible to NACKs");
        assert!(res.completion_time >= SimTime::from_ms(4));
    }

    #[test]
    fn gbn_tail_loss_no_timeout_with_tlt() {
        // With rate TLT the tail is important (green); in the harness drops
        // are scripted, so instead drop the packet *before* the tail: the
        // important tail arrives out of order, triggering an instant NACK.
        let flow = 50_000u64;
        let (res, stats) = run_roce(with_tlt(gbn_cfg(flow)), DropPlan::data_once(48_000));
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 0, "tail importance converts RTO to NACK");
        assert!(res.completion_time < SimTime::from_ms(1));
    }

    #[test]
    fn gbn_first_retransmission_loss_needs_rto_without_tlt() {
        // Figure 4: drop packet 10_000 twice (original + retransmission).
        // After the second loss the receiver's NACK is suppressed (same
        // expected seq), so only the RTO recovers.
        let (res, stats) = run_roce(gbn_cfg(50_000), DropPlan::data_n_times(10_000, 2));
        assert!(res.receiver_complete);
        assert!(
            stats.timeouts >= 1,
            "duplicate NACK cannot be distinguished"
        );
    }

    #[test]
    fn sack_selective_retransmit_single_loss() {
        let (res, stats) = run_roce(sack_cfg(50_000), DropPlan::data_once(10_000));
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.fast_retx, 1, "exactly the lost segment re-sent");
    }

    #[test]
    fn irn_window_caps_inflight() {
        let cfg = irn_cfg(400_000);
        let mut tx = RoceSender::new(cfg.clone());
        let mut rx = RoceReceiver::new(cfg.flow, cfg.flow_bytes, true, false);
        // Run only the first 30us: no ACK can return (one-way 1ms).
        let mut h = Harness::new(SimTime::from_ms(1), DropPlan::none());
        let res = h.run(&mut tx, &mut rx, SimTime::from_us(30));
        assert!(!res.receiver_complete);
        // 40kB cap at 1000B MSS = at most 40 packets in flight.
        assert!(
            tx.stats().data_pkts_sent <= 40,
            "sent {} > window cap",
            tx.stats().data_pkts_sent
        );
    }

    #[test]
    fn irn_tail_loss_fast_timeout() {
        let flow = 50_000u64;
        let (res, stats) = run_roce(irn_cfg(flow), DropPlan::data_once(49_000));
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 1);
        // RTO_low (100us) instead of 4ms.
        assert!(
            res.completion_time < SimTime::from_ms(1),
            "IRN's RTO_low recovers quickly: {}",
            res.completion_time
        );
    }

    #[test]
    fn tlt_marks_tail_and_periodic() {
        let (res, stats) = run_roce(with_tlt(sack_cfg(200_000)), DropPlan::none());
        assert!(res.receiver_complete);
        // 200 packets: tail + 1-2 periodic marks (every 96).
        assert!(stats.important_pkts >= 2, "tail + periodic marks");
        assert!(stats.important_pkts <= 5);
    }

    #[test]
    fn selective_retx_round_marks_boundaries() {
        // Drop three consecutive segments; with TLT the retransmission
        // round's first and last packets are marked important.
        let mut plan = DropPlan::none();
        for s in [10_000u64, 11_000, 12_000] {
            plan.drop_data_once(s);
        }
        let (res, stats) = run_roce(with_tlt(sack_cfg(50_000)), plan);
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 0);
        assert!(stats.fast_retx >= 3);
    }

    #[test]
    fn selective_reopens_round_when_retransmission_lost() {
        // Two holes; the second hole's retransmission is lost as well. The
        // ACK for the recovered first hole proves the round was exhausted
        // while data is still missing, so the sender re-opens the round
        // instead of waiting for the 4ms RTO.
        let mut plan = DropPlan::data_once(10_000);
        plan.drop_data_once(12_000);
        plan.drop_data_once(12_000); // and its first retransmission
        let (res, stats) = run_roce(with_tlt(sack_cfg(50_000)), plan);
        assert!(res.receiver_complete);
        assert_eq!(stats.timeouts, 0, "round re-arm avoids the RTO");
        assert!(
            res.completion_time < SimTime::from_ms(1),
            "recovered in RTTs: {}",
            res.completion_time
        );
    }

    #[test]
    fn dcqcn_cnp_reduces_rate_and_recovers() {
        let cfg = gbn_cfg(2_000_000);
        let mut tx = RoceSender::new(cfg.clone());
        let mut rx = RoceReceiver::new(cfg.flow, cfg.flow_bytes, false, false);
        let mut h = Harness::new(SimTime::from_us(4), DropPlan::none());
        h.mark_ce_every = 3; // persistent congestion signal
        let res = h.run(&mut tx, &mut rx, SimTime::from_secs(1));
        assert!(res.receiver_complete);
        assert!(
            tx.dcqcn().rate_bps() < 40_000_000_000,
            "CE marks throttled the sender to {}",
            tx.dcqcn().rate_bps()
        );
        // At line rate 2 MB takes ~420us; CNP throttling slows it well
        // beyond that.
        assert!(res.completion_time > SimTime::from_ms(1));
    }

    #[test]
    fn dcqcn_rate_machine_stages() {
        let mut d = Dcqcn::new(DcqcnParams::for_line_rate(40_000_000_000));
        for _ in 0..10 {
            d.on_cnp();
        }
        let cut = d.rate_bps();
        assert!(cut < 20_000_000_000, "repeated CNPs cut hard: {cut}");
        // Fast recovery: halfway back to target each event.
        for _ in 0..10 {
            d.on_inc_timer();
        }
        assert!(d.rate_bps() > cut);
        // Long recovery reaches line rate again via additive/hyper.
        for _ in 0..2000 {
            d.on_inc_timer();
        }
        assert_eq!(d.rate_bps(), 40_000_000_000);
    }

    #[test]
    fn dcqcn_alpha_decays_without_cnp() {
        let mut d = Dcqcn::new(DcqcnParams::for_line_rate(40_000_000_000));
        d.on_cnp();
        let a0 = d.alpha();
        for _ in 0..500 {
            d.on_alpha_timer();
        }
        assert!(d.alpha() < a0 / 2.0);
    }

    #[test]
    fn gbn_receiver_nacks_once_per_gap() {
        let mut rx = RoceReceiver::new(FlowId(7), 10_000, false, false);
        let mut actions = Vec::new();
        {
            let mut ctx = Ctx {
                now: SimTime::ZERO,
                actions: &mut actions,
            };
            // In-order packet.
            rx.on_packet(&Packet::data(FlowId(7), 0, 1000), &mut ctx);
            // Gap: two OOO packets -> exactly one NACK.
            rx.on_packet(&Packet::data(FlowId(7), 2000, 1000), &mut ctx);
            rx.on_packet(&Packet::data(FlowId(7), 3000, 1000), &mut ctx);
        }
        let nacks: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                crate::iface::Action::Send(p) if p.kind == PacketKind::Nack => Some(p.seq),
                _ => None,
            })
            .collect();
        assert_eq!(nacks, vec![1000]);
        // Fill the gap: NACK re-arms for the *next* gap.
        let mut ctx = Ctx {
            now: SimTime::ZERO,
            actions: &mut actions,
        };
        rx.on_packet(&Packet::data(FlowId(7), 1000, 1000), &mut ctx);
        assert_eq!(rx.bytes_complete(), 2000, "GBN discarded the OOO data");
    }

    #[test]
    fn cnp_pacing_interval() {
        let mut rx = RoceReceiver::new(FlowId(7), 100_000, true, false);
        let mut actions = Vec::new();
        let count_cnps = |actions: &Vec<crate::iface::Action>| {
            actions
                .iter()
                .filter(|a| matches!(a, crate::iface::Action::Send(p) if p.kind == PacketKind::Cnp))
                .count()
        };
        for i in 0..10u64 {
            let mut ctx = Ctx {
                now: SimTime::from_us(i * 10),
                actions: &mut actions,
            };
            let mut p = Packet::data(FlowId(7), i * 1000, 1000);
            p.ce = true;
            rx.on_packet(&p, &mut ctx);
        }
        // 90us of CE marks at 50us pacing -> 2 CNPs (t=0 and t=50).
        assert_eq!(count_cnps(&actions), 2);
    }
}
