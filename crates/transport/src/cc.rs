//! Congestion control algorithms for window-based transports.
//!
//! The window sender ([`crate::tcp::WindowSender`]) is generic over a
//! [`CongestionControl`] implementation; this module provides the three the
//! paper evaluates:
//!
//! - [`NewReno`]: loss-based AIMD (vanilla TCP),
//! - [`Dctcp`]: ECN-fraction-based window scaling \[17\],
//! - [`Hpcc`]: INT-driven window computation \[41\].

use eventsim::SimTime;
use netsim::packet::{IntHop, Packet};

/// Per-ACK context handed to congestion control.
#[derive(Clone, Copy, Debug)]
pub struct AckCtx<'a> {
    /// Bytes newly acknowledged cumulatively by this ACK.
    pub newly_acked: u64,
    /// ECN-Echo: the acked data was CE-marked.
    pub ece: bool,
    /// Sender's `snd_una` after processing this ACK.
    pub snd_una: u64,
    /// Sender's `snd_nxt`.
    pub snd_nxt: u64,
    /// Outstanding unacknowledged bytes (pipe estimate).
    pub flight: u64,
    /// Current time.
    pub now: SimTime,
    /// The ACK packet itself (INT stack for HPCC).
    pub pkt: &'a Packet,
}

/// A congestion control algorithm driving a window-based sender.
pub trait CongestionControl {
    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;
    /// Processes an acceptable ACK.
    fn on_ack(&mut self, ack: &AckCtx);
    /// Called once when entering fast recovery (loss detected).
    fn on_loss(&mut self, flight: u64);
    /// Called on a retransmission timeout.
    fn on_timeout(&mut self, flight: u64);
    /// Algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// TCP NewReno: slow start, congestion avoidance, multiplicative decrease.
///
/// # Examples
///
/// ```
/// use transport::cc::{CongestionControl, NewReno};
///
/// let mut cc = NewReno::new(1440, 10);
/// assert_eq!(cc.cwnd(), 14_400);
/// cc.on_timeout(14_400);
/// assert_eq!(cc.cwnd(), 1440, "collapse to one MSS");
/// ```
#[derive(Clone, Debug)]
pub struct NewReno {
    mss: u64,
    cwnd: f64,
    ssthresh: f64,
}

impl NewReno {
    /// Creates NewReno with an initial window of `init_pkts` segments.
    pub fn new(mss: u32, init_pkts: u32) -> NewReno {
        let mss = u64::from(mss);
        NewReno {
            mss,
            cwnd: (mss * u64::from(init_pkts)) as f64,
            ssthresh: f64::INFINITY,
        }
    }

    fn grow(&mut self, newly_acked: u64) {
        if self.cwnd < self.ssthresh {
            // Slow start: one MSS per MSS acked.
            self.cwnd += (newly_acked.min(self.mss)) as f64;
        } else if self.cwnd > 0.0 {
            // Congestion avoidance: ~one MSS per RTT.
            self.cwnd +=
                (self.mss * newly_acked) as f64 * self.mss as f64 / (self.cwnd * self.mss as f64);
        }
    }

    fn halve(&mut self, flight: u64) {
        self.ssthresh = ((flight / 2).max(2 * self.mss)) as f64;
        self.cwnd = self.ssthresh;
    }
}

impl CongestionControl for NewReno {
    fn cwnd(&self) -> u64 {
        (self.cwnd as u64).max(self.mss)
    }

    fn on_ack(&mut self, ack: &AckCtx) {
        self.grow(ack.newly_acked);
    }

    fn on_loss(&mut self, flight: u64) {
        self.halve(flight);
    }

    fn on_timeout(&mut self, flight: u64) {
        self.ssthresh = ((flight / 2).max(2 * self.mss)) as f64;
        self.cwnd = self.mss as f64;
    }

    fn name(&self) -> &'static str {
        "newreno"
    }
}

/// DCTCP \[17\]: estimates the fraction α of CE-marked bytes per window and
/// scales the window by `1 − α/2` once per window with marks. Falls back to
/// NewReno behavior on packet loss.
#[derive(Clone, Debug)]
pub struct Dctcp {
    reno: NewReno,
    /// EWMA gain g (the paper's guideline: 1/16).
    g: f64,
    alpha: f64,
    bytes_acked: u64,
    bytes_marked: u64,
    /// End of the current observation window in sequence space.
    window_end: u64,
}

impl Dctcp {
    /// Creates DCTCP with an initial window of `init_pkts` segments.
    pub fn new(mss: u32, init_pkts: u32) -> Dctcp {
        Dctcp {
            reno: NewReno::new(mss, init_pkts),
            g: 1.0 / 16.0,
            alpha: 1.0, // conservative start, as in the DCTCP paper
            bytes_acked: 0,
            bytes_marked: 0,
            window_end: 0,
        }
    }

    /// Current marking-fraction estimate α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl CongestionControl for Dctcp {
    fn cwnd(&self) -> u64 {
        self.reno.cwnd()
    }

    fn on_ack(&mut self, ack: &AckCtx) {
        self.bytes_acked += ack.newly_acked;
        if ack.ece {
            self.bytes_marked += ack.newly_acked;
        }
        if ack.snd_una >= self.window_end {
            if self.bytes_acked > 0 {
                let f = self.bytes_marked as f64 / self.bytes_acked as f64;
                self.alpha = (1.0 - self.g) * self.alpha + self.g * f;
                if self.bytes_marked > 0 {
                    let reduced = self.reno.cwnd * (1.0 - self.alpha / 2.0);
                    self.reno.cwnd = reduced.max((2 * self.reno.mss) as f64);
                    self.reno.ssthresh = self.reno.cwnd;
                }
            }
            self.bytes_acked = 0;
            self.bytes_marked = 0;
            self.window_end = ack.snd_nxt;
        }
        if !ack.ece {
            self.reno.grow(ack.newly_acked);
        }
    }

    fn on_loss(&mut self, flight: u64) {
        // DCTCP falls back to vanilla TCP in the presence of losses (§4.2).
        self.reno.on_loss(flight);
    }

    fn on_timeout(&mut self, flight: u64) {
        self.reno.on_timeout(flight);
    }

    fn name(&self) -> &'static str {
        "dctcp"
    }
}

/// HPCC \[41\]: computes the window from per-hop INT telemetry so that the
/// most-utilized link converges to `η` (95%) utilization. Does not reduce
/// the window on loss — the property §7.2 highlights.
#[derive(Clone, Debug)]
pub struct Hpcc {
    /// Utilization target η.
    eta: f64,
    /// Additive increase per ACK round (bytes).
    w_ai: f64,
    /// Max consecutive additive-increase stages before forced MI.
    max_stage: u32,
    /// Base RTT T.
    base_rtt: SimTime,
    /// Bandwidth-delay product (initial and maximum window).
    bdp: u64,
    mss: u64,
    wc: f64,
    w: f64,
    u: f64,
    inc_stage: u32,
    last_update_seq: u64,
    last_int: Vec<IntHop>,
}

impl Hpcc {
    /// Creates HPCC for a path with the given base RTT and BDP.
    pub fn new(mss: u32, base_rtt: SimTime, bdp: u64) -> Hpcc {
        Hpcc {
            eta: 0.95,
            w_ai: (bdp as f64 * (1.0 - 0.95) / 16.0).max(80.0),
            max_stage: 5,
            base_rtt,
            bdp,
            mss: u64::from(mss),
            wc: bdp as f64,
            w: bdp as f64,
            u: 1.0,
            inc_stage: 0,
            last_update_seq: 0,
            last_int: Vec::new(),
        }
    }

    /// The current normalized-inflight estimate U.
    pub fn utilization(&self) -> f64 {
        self.u
    }

    /// MeasureInflight (HPCC paper, Algorithm 1): fold the new INT stack
    /// against the previous one into the EWMA of normalized inflight.
    fn measure_inflight(&mut self, stack: &[IntHop]) {
        if self.last_int.len() != stack.len() {
            // Path view changed (first ACK): just record.
            self.record_int(stack);
            return;
        }
        let t = self.base_rtt.as_ns().max(1) as f64; // ns
        let mut u_max = 0.0_f64;
        let mut tau = t;
        for (hop, last) in stack.iter().zip(self.last_int.iter()) {
            let dt = hop.ts.saturating_sub(last.ts).as_ns() as f64;
            if dt <= 0.0 {
                continue;
            }
            let b = hop.rate_bps as f64; // bits per second
            let tx_bits = hop.tx_bytes.saturating_sub(last.tx_bytes) as f64 * 8.0;
            let tx_rate = tx_bits / (dt / 1e9); // bps
            let qlen_bits = hop.q_len.min(last.q_len) as f64 * 8.0;
            let u_j = qlen_bits / (b * t / 1e9) + tx_rate / b;
            if u_j > u_max {
                u_max = u_j;
                tau = dt;
            }
        }
        let tau = tau.min(t);
        self.u = (1.0 - tau / t) * self.u + (tau / t) * u_max;
        self.record_int(stack);
    }

    /// Keeps `stack` for the next ACK's deltas, in the buffer already held.
    fn record_int(&mut self, stack: &[IntHop]) {
        self.last_int.clear();
        self.last_int.extend_from_slice(stack);
    }

    /// ComputeWind (HPCC paper, Algorithm 1).
    fn compute_wind(&mut self, update_wc: bool) {
        if self.u >= self.eta || self.inc_stage >= self.max_stage {
            self.w = self.wc / (self.u / self.eta) + self.w_ai;
            if update_wc {
                self.inc_stage = 0;
                self.wc = self.w;
            }
        } else {
            self.w = self.wc + self.w_ai;
            if update_wc {
                self.inc_stage += 1;
                self.wc = self.w;
            }
        }
        self.w = self.w.clamp(self.mss as f64, self.bdp as f64);
        self.wc = self.wc.clamp(self.mss as f64, self.bdp as f64);
    }
}

impl CongestionControl for Hpcc {
    fn cwnd(&self) -> u64 {
        (self.w as u64).max(self.mss)
    }

    fn on_ack(&mut self, ack: &AckCtx) {
        if ack.pkt.int_stack.is_empty() {
            return;
        }
        self.measure_inflight(&ack.pkt.int_stack);
        let update_wc = ack.snd_una > self.last_update_seq;
        self.compute_wind(update_wc);
        if update_wc {
            self.last_update_seq = ack.snd_nxt;
        }
    }

    fn on_loss(&mut self, _flight: u64) {
        // HPCC does not reduce the rate in the presence of losses (§7.2).
    }

    fn on_timeout(&mut self, _flight: u64) {}

    fn name(&self) -> &'static str {
        "hpcc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::FlowId;

    fn ack_ctx<'a>(pkt: &'a Packet, acked: u64, ece: bool, una: u64, nxt: u64) -> AckCtx<'a> {
        AckCtx {
            newly_acked: acked,
            ece,
            snd_una: una,
            snd_nxt: nxt,
            flight: nxt - una,
            now: SimTime::ZERO,
            pkt,
        }
    }

    #[test]
    fn newreno_slow_start_doubles_per_rtt() {
        let mut cc = NewReno::new(1000, 2);
        let pkt = Packet::ack(FlowId(0), 0);
        // Acking a full window in slow start doubles cwnd.
        let w0 = cc.cwnd();
        let mut acked = 0;
        while acked < w0 {
            cc.on_ack(&ack_ctx(&pkt, 1000, false, acked + 1000, w0 * 2));
            acked += 1000;
        }
        assert_eq!(cc.cwnd(), 2 * w0);
    }

    #[test]
    fn newreno_congestion_avoidance_is_linear() {
        let mut cc = NewReno::new(1000, 10);
        cc.on_loss(10_000); // ssthresh = 5000, cwnd = 5000
        assert_eq!(cc.cwnd(), 5000);
        let pkt = Packet::ack(FlowId(0), 0);
        // Ack one full window: growth ~ 1 MSS.
        let w0 = cc.cwnd();
        let mut acked = 0;
        while acked < w0 {
            cc.on_ack(&ack_ctx(&pkt, 1000, false, acked + 1000, 100_000));
            acked += 1000;
        }
        let grown = cc.cwnd() - w0;
        assert!((800..=1200).contains(&grown), "CA growth {grown} per RTT");
    }

    #[test]
    fn newreno_loss_halves_flight() {
        let mut cc = NewReno::new(1000, 10);
        cc.on_loss(8_000);
        assert_eq!(cc.cwnd(), 4_000);
        // Floor of 2 MSS.
        cc.on_loss(1_000);
        assert_eq!(cc.cwnd(), 2_000);
    }

    #[test]
    fn dctcp_reduces_proportionally_to_marking() {
        let mut cc = Dctcp::new(1000, 10);
        let pkt = Packet::ack(FlowId(0), 0);
        // First settle alpha low: several unmarked windows.
        let mut una = 0;
        for _ in 0..60 {
            cc.on_ack(&ack_ctx(&pkt, 10_000, false, una + 10_000, una + 20_000));
            una += 10_000;
        }
        assert!(
            cc.alpha() < 0.05,
            "alpha decays without marks: {}",
            cc.alpha()
        );
        let w = cc.cwnd();
        // One fully-marked window: alpha jumps by g, window shrinks by
        // alpha/2 — i.e. a gentle reduction, not a halving.
        cc.on_ack(&ack_ctx(&pkt, 10_000, true, una + 10_000, una + 20_000));
        let w2 = cc.cwnd();
        assert!(w2 < w, "marked window reduces cwnd");
        assert!(w2 > w / 2, "reduction gentler than TCP halving");
    }

    #[test]
    fn dctcp_full_marking_converges_alpha_to_one() {
        let mut cc = Dctcp::new(1000, 10);
        let pkt = Packet::ack(FlowId(0), 0);
        let mut una = 0;
        for _ in 0..100 {
            cc.on_ack(&ack_ctx(&pkt, 10_000, true, una + 10_000, una + 20_000));
            una += 10_000;
        }
        assert!(cc.alpha() > 0.9, "alpha -> 1 under persistent marking");
        assert_eq!(cc.cwnd(), 2_000, "cwnd pinned at floor");
    }

    #[test]
    fn dctcp_loss_falls_back_to_reno() {
        let mut cc = Dctcp::new(1000, 10);
        cc.on_loss(10_000);
        assert_eq!(cc.cwnd(), 5_000);
        cc.on_timeout(10_000);
        assert_eq!(cc.cwnd(), 1_000);
    }

    fn int_ack(flow: FlowId, q_len: u64, tx_bytes: u64, ts: SimTime) -> Packet {
        let mut a = Packet::ack(flow, 0);
        a.int_stack.push(IntHop {
            q_len,
            tx_bytes,
            ts,
            rate_bps: 40_000_000_000,
        });
        a
    }

    #[test]
    fn hpcc_reduces_window_under_high_utilization() {
        let bdp = 400_000;
        let mut cc = Hpcc::new(1000, SimTime::from_us(80), bdp);
        assert_eq!(cc.cwnd(), bdp);
        // Saturated link: queue of 300 kB, tx at line rate.
        let mut tx = 0u64;
        let mut now = SimTime::ZERO;
        for i in 0..20 {
            now += SimTime::from_us(80);
            tx += 400_000; // line rate over one RTT
            let a = int_ack(FlowId(0), 300_000, tx, now);
            cc.on_ack(&ack_ctx(
                &a,
                10_000,
                false,
                (i + 1) * 10_000,
                (i + 2) * 10_000,
            ));
        }
        assert!(
            cc.utilization() > 1.0,
            "U reflects deep queue: {}",
            cc.utilization()
        );
        assert!(
            cc.cwnd() < bdp / 2,
            "window shrinks well below BDP, got {}",
            cc.cwnd()
        );
    }

    #[test]
    fn hpcc_grows_additively_when_underutilized() {
        let bdp = 400_000;
        let mut cc = Hpcc::new(1000, SimTime::from_us(80), bdp);
        // First pull the window down.
        let mut tx = 0u64;
        let mut now = SimTime::ZERO;
        for i in 0..10 {
            now += SimTime::from_us(80);
            tx += 400_000;
            let a = int_ack(FlowId(0), 300_000, tx, now);
            cc.on_ack(&ack_ctx(
                &a,
                10_000,
                false,
                (i + 1) * 10_000,
                (i + 2) * 10_000,
            ));
        }
        let low = cc.cwnd();
        // Now an idle link: empty queue, tiny tx rate.
        for i in 10..60 {
            now += SimTime::from_us(80);
            tx += 4_000;
            let a = int_ack(FlowId(0), 0, tx, now);
            cc.on_ack(&ack_ctx(
                &a,
                10_000,
                false,
                (i + 1) * 10_000,
                (i + 2) * 10_000,
            ));
        }
        assert!(cc.cwnd() > low, "window recovers: {} -> {}", low, cc.cwnd());
    }

    #[test]
    fn hpcc_ignores_loss_and_timeout() {
        let mut cc = Hpcc::new(1000, SimTime::from_us(80), 400_000);
        let w = cc.cwnd();
        cc.on_loss(100_000);
        cc.on_timeout(100_000);
        assert_eq!(cc.cwnd(), w);
    }

    #[test]
    fn hpcc_window_bounded() {
        let mut cc = Hpcc::new(1000, SimTime::from_us(80), 400_000);
        // Absurdly idle reports never push W past BDP...
        let mut now = SimTime::ZERO;
        for i in 0..100 {
            now += SimTime::from_us(80);
            let a = int_ack(FlowId(0), 0, (i + 1) * 100, now);
            cc.on_ack(&ack_ctx(
                &a,
                10_000,
                false,
                (i + 1) * 10_000,
                (i + 2) * 10_000,
            ));
            assert!(cc.cwnd() <= 400_000);
            assert!(cc.cwnd() >= 1000);
        }
    }
}
