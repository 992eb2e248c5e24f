//! TLT for window-based transports (§5.1, Algorithm 1, Appendix A).
//!
//! Window-based transports (TCP, DCTCP, HPCC, IRN) are self-clocked: ACKs
//! for departing packets slide the window and release new packets. A timeout
//! happens when self-clocking breaks — the tail of a window, a whole window,
//! or the ACK stream is lost. TLT keeps *one* important packet in flight at
//! all times:
//!
//! 1. the last packet of the initial window is sent as `ImportantData`;
//! 2. the receiver acknowledges an `ImportantData` immediately with an
//!    `ImportantEcho`;
//! 3. upon the echo, the sender marks its next transmission `ImportantData`
//!    again — and if the window permits no transmission, it *injects* a
//!    packet anyway (**important ACK-clocking**), because the switch has
//!    reserved buffer room for green packets.
//!
//! The clocking packet is adaptive (Appendix B, Figure 17): one MSS of the
//! first lost segment when the echo indicates a loss (fast recovery), one
//! byte of the first unacked segment otherwise (minimal footprint). Clocking
//! packets are tagged `ImportantClockData`; their echoes,
//! `ImportantClockEcho`, are discarded at the TLT layer when they would
//! surface as duplicate ACKs (Appendix A), so congestion control never sees
//! clocking-induced dupACKs.

use netsim::packet::TltMark;

/// What the sender transmits when important ACK-clocking fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockingSend {
    /// Payload bytes to send (1 or one MSS).
    pub bytes: u32,
    /// `true`: take the bytes from the first *lost* segment (fast
    /// recovery); `false`: resend the first unacked byte(s).
    pub from_lost: bool,
}

/// Policy deciding the size of important ACK-clocking packets.
///
/// `Adaptive` is TLT's design; the other two are the ablation arms of
/// Figure 17.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ClockingPolicy {
    /// 1 MSS when the echo indicates loss, 1 byte otherwise (the paper).
    #[default]
    Adaptive,
    /// Always retransmit a full MSS (fast recovery, high overhead).
    AlwaysMss,
    /// Always send a single byte (low overhead, slow recovery).
    AlwaysOneByte,
}

/// Configuration of the window-based TLT layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowTltConfig {
    /// Clocking packet sizing policy.
    pub clocking: ClockingPolicy,
}

/// Verdict on an incoming ACK after TLT inspection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckVerdict {
    /// Hand the ACK to the transport as usual.
    Deliver,
    /// Drop the ACK at the TLT layer: it is an `ImportantClockEcho` that
    /// would register as a duplicate ACK and mislead congestion control
    /// (Appendix A).
    Suppress,
}

/// Sender half of window-based TLT.
///
/// # Examples
///
/// ```
/// use tlt_core::{WindowTltSender, WindowTltConfig, AckVerdict};
/// use netsim::packet::TltMark;
///
/// let mut tlt = WindowTltSender::new(WindowTltConfig::default());
/// // Initial window of three packets: only the last is important.
/// assert_eq!(tlt.mark_data(true), TltMark::None);
/// assert_eq!(tlt.mark_data(true), TltMark::None);
/// assert_eq!(tlt.mark_data(false), TltMark::ImportantData);
/// // The echo re-arms the sender.
/// assert_eq!(
///     tlt.on_ack(TltMark::ImportantEcho, 1440, 0),
///     AckVerdict::Deliver
/// );
/// assert_eq!(tlt.mark_data(true), TltMark::ImportantData);
/// ```
#[derive(Clone, Debug)]
pub struct WindowTltSender {
    cfg: WindowTltConfig,
    /// `true` once an echo armed the sender: mark the next transmission.
    armed: bool,
    /// Still sending the initial window (no important packet in flight yet).
    initial_phase: bool,
}

impl WindowTltSender {
    /// Creates a sender-side TLT layer.
    pub fn new(cfg: WindowTltConfig) -> WindowTltSender {
        WindowTltSender {
            cfg,
            armed: false,
            initial_phase: true,
        }
    }

    /// Chooses the mark for an outgoing data packet.
    ///
    /// `more_to_send` tells TLT whether the transport could transmit another
    /// packet immediately after this one; during the initial window the
    /// *last* packet of the burst is the important one (§5.1), afterwards
    /// the first packet sent after an echo is.
    pub fn mark_data(&mut self, more_to_send: bool) -> TltMark {
        let important = if self.initial_phase {
            if more_to_send {
                false
            } else {
                self.initial_phase = false;
                true
            }
        } else if self.armed {
            self.armed = false;
            true
        } else {
            false
        };
        if important {
            TltMark::ImportantData
        } else {
            TltMark::None
        }
    }

    /// Inspects an incoming ACK *before* the transport sees it.
    ///
    /// Echoes re-arm the sender; `ImportantClockEcho`s that do not advance
    /// `snd_una` are suppressed so the clocking machinery cannot fabricate
    /// duplicate ACKs (Appendix A).
    pub fn on_ack(&mut self, mark: TltMark, ack: u64, snd_una: u64) -> AckVerdict {
        match mark {
            TltMark::ImportantEcho => {
                self.armed = true;
                self.initial_phase = false;
                AckVerdict::Deliver
            }
            TltMark::ImportantClockEcho => {
                self.armed = true;
                self.initial_phase = false;
                if ack <= snd_una {
                    AckVerdict::Suppress
                } else {
                    AckVerdict::Deliver
                }
            }
            _ => AckVerdict::Deliver,
        }
    }

    /// Whether an echo has armed the sender and no data packet has consumed
    /// the mark yet. When this is still `true` after the transport finished
    /// reacting to an ACK, self-clocking is about to stall and
    /// [`WindowTltSender::take_clocking`] must be consulted.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Consumes the armed state and produces the important ACK-clocking
    /// directive, or `None` when clocking is not required.
    ///
    /// `loss_detected` is the transport's view of whether any unimportant
    /// packet between the last two important packets was lost.
    pub fn take_clocking(&mut self, loss_detected: bool, mss: u32) -> Option<ClockingSend> {
        if !self.armed {
            return None;
        }
        self.armed = false;
        let bytes = match self.cfg.clocking {
            ClockingPolicy::Adaptive => {
                if loss_detected {
                    mss
                } else {
                    1
                }
            }
            ClockingPolicy::AlwaysMss => mss,
            ClockingPolicy::AlwaysOneByte => 1,
        };
        Some(ClockingSend {
            bytes,
            from_lost: loss_detected,
        })
    }
}

/// Receiver half of window-based TLT: turns important data into immediate
/// important echoes (Algorithm 1, `ReceiveData` / `SendAck`).
///
/// # Examples
///
/// ```
/// use tlt_core::WindowTltReceiver;
/// use netsim::packet::TltMark;
///
/// let mut rx = WindowTltReceiver::new();
/// rx.on_data(TltMark::ImportantData);
/// assert_eq!(rx.mark_for_ack(), TltMark::ImportantEcho);
/// assert_eq!(rx.mark_for_ack(), TltMark::None, "state is consumed");
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowTltReceiver {
    state: RecvState,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum RecvState {
    #[default]
    Idle,
    Important,
    ImportantClock,
}

impl WindowTltReceiver {
    /// Creates a receiver-side TLT layer.
    pub fn new() -> WindowTltReceiver {
        WindowTltReceiver::default()
    }

    /// Notes the mark of an arriving data packet.
    pub fn on_data(&mut self, mark: TltMark) {
        match mark {
            TltMark::ImportantData => self.state = RecvState::Important,
            TltMark::ImportantClockData
                // A plain Important state is not downgraded: the echo for
                // real important data takes precedence.
                if self.state == RecvState::Idle => {
                    self.state = RecvState::ImportantClock;
                }
            _ => {}
        }
    }

    /// Chooses (and consumes) the mark for the next outgoing ACK.
    pub fn mark_for_ack(&mut self) -> TltMark {
        match std::mem::take(&mut self.state) {
            RecvState::Idle => TltMark::None,
            RecvState::Important => TltMark::ImportantEcho,
            RecvState::ImportantClock => TltMark::ImportantClockEcho,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_window_marks_only_last() {
        let mut tlt = WindowTltSender::new(WindowTltConfig::default());
        let mut marks = Vec::new();
        for _ in 0..9 {
            marks.push(tlt.mark_data(true));
            assert_eq!(marks.last(), Some(&TltMark::None));
        }
        marks.push(tlt.mark_data(false));
        assert_eq!(marks.last(), Some(&TltMark::ImportantData));
        // Without an echo, nothing further is marked.
        marks.push(tlt.mark_data(false));
        assert_eq!(marks.last(), Some(&TltMark::None));
        let important = marks.iter().filter(|m| m.is_important()).count();
        assert_eq!((important, marks.len() - important), (1, 10));
    }

    #[test]
    fn single_packet_flow_marks_it() {
        let mut tlt = WindowTltSender::new(WindowTltConfig::default());
        assert_eq!(tlt.mark_data(false), TltMark::ImportantData);
    }

    #[test]
    fn echo_arms_next_transmission() {
        let mut tlt = WindowTltSender::new(WindowTltConfig::default());
        assert_eq!(tlt.mark_data(false), TltMark::ImportantData);
        assert_eq!(
            tlt.on_ack(TltMark::ImportantEcho, 1440, 0),
            AckVerdict::Deliver
        );
        assert!(tlt.armed());
        // First packet after the echo is important even if more follow.
        assert_eq!(tlt.mark_data(true), TltMark::ImportantData);
        assert!(!tlt.armed());
        assert_eq!(tlt.mark_data(false), TltMark::None);
    }

    #[test]
    fn one_important_in_flight_invariant() {
        // Over any interleaving of echoes and sends, the number of
        // outstanding important packets is at most one.
        let mut tlt = WindowTltSender::new(WindowTltConfig::default());
        let mut in_flight = 0i32;
        // Initial window.
        for i in 0..5 {
            if tlt.mark_data(i != 4) == TltMark::ImportantData {
                in_flight += 1;
            }
        }
        assert_eq!(in_flight, 1);
        for round in 0..50u64 {
            // Echo consumes the in-flight important packet...
            tlt.on_ack(TltMark::ImportantEcho, round * 10, 0);
            in_flight -= 1;
            // ...and exactly one of the next sends re-marks.
            let mut marked = 0;
            for i in 0..3 {
                if tlt.mark_data(i != 2) == TltMark::ImportantData {
                    marked += 1;
                }
            }
            assert_eq!(marked, 1);
            in_flight += marked;
            assert_eq!(in_flight, 1);
        }
    }

    #[test]
    fn clock_echo_below_una_is_suppressed() {
        let mut tlt = WindowTltSender::new(WindowTltConfig::default());
        tlt.mark_data(false);
        // Duplicate ACK (ack == snd_una) from a clocking packet: suppress.
        assert_eq!(
            tlt.on_ack(TltMark::ImportantClockEcho, 100, 100),
            AckVerdict::Suppress
        );
        // It still re-arms clocking.
        assert!(tlt.armed());
        // A clock echo that advances the window is delivered.
        assert_eq!(
            tlt.on_ack(TltMark::ImportantClockEcho, 200, 100),
            AckVerdict::Deliver
        );
        // Regular echoes and plain ACKs are always delivered.
        assert_eq!(
            tlt.on_ack(TltMark::ImportantEcho, 100, 100),
            AckVerdict::Deliver
        );
        assert_eq!(tlt.on_ack(TltMark::None, 100, 100), AckVerdict::Deliver);
    }

    #[test]
    fn adaptive_clocking_sizes() {
        let mut tlt = WindowTltSender::new(WindowTltConfig::default());
        tlt.mark_data(false);
        assert_eq!(tlt.take_clocking(false, 1440), None, "not armed yet");

        tlt.on_ack(TltMark::ImportantEcho, 10, 0);
        // No loss: 1 byte of the first unacked segment.
        let first = tlt.take_clocking(false, 1440).unwrap();
        assert_eq!(
            first,
            ClockingSend {
                bytes: 1,
                from_lost: false
            }
        );
        assert_eq!(tlt.take_clocking(false, 1440), None, "armed state consumed");

        tlt.on_ack(TltMark::ImportantEcho, 20, 10);
        // Loss: a full MSS of the lost segment.
        let second = tlt.take_clocking(true, 1440).unwrap();
        assert_eq!(
            second,
            ClockingSend {
                bytes: 1440,
                from_lost: true
            }
        );

        // Two clocking packets, 1441 payload bytes between them.
        assert_eq!(u64::from(first.bytes) + u64::from(second.bytes), 1441);
    }

    #[test]
    fn ablation_policies() {
        let mut always_mss = WindowTltSender::new(WindowTltConfig {
            clocking: ClockingPolicy::AlwaysMss,
        });
        always_mss.mark_data(false);
        always_mss.on_ack(TltMark::ImportantEcho, 1, 0);
        assert_eq!(always_mss.take_clocking(false, 1440).unwrap().bytes, 1440);

        let mut one_byte = WindowTltSender::new(WindowTltConfig {
            clocking: ClockingPolicy::AlwaysOneByte,
        });
        one_byte.mark_data(false);
        one_byte.on_ack(TltMark::ImportantEcho, 1, 0);
        assert_eq!(one_byte.take_clocking(true, 1440).unwrap().bytes, 1);
    }

    #[test]
    fn receiver_echo_state_machine() {
        let mut rx = WindowTltReceiver::new();
        assert_eq!(rx.mark_for_ack(), TltMark::None);

        rx.on_data(TltMark::ImportantData);
        assert_eq!(rx.mark_for_ack(), TltMark::ImportantEcho);
        assert_eq!(rx.mark_for_ack(), TltMark::None);

        rx.on_data(TltMark::ImportantClockData);
        assert_eq!(rx.mark_for_ack(), TltMark::ImportantClockEcho);

        // ImportantData takes precedence over a pending clock state.
        rx.on_data(TltMark::ImportantClockData);
        rx.on_data(TltMark::ImportantData);
        assert_eq!(rx.mark_for_ack(), TltMark::ImportantEcho);

        // And is not downgraded by a later clock packet.
        rx.on_data(TltMark::ImportantData);
        rx.on_data(TltMark::ImportantClockData);
        assert_eq!(rx.mark_for_ack(), TltMark::ImportantEcho);
    }

    #[test]
    fn unmarked_data_leaves_receiver_idle() {
        let mut rx = WindowTltReceiver::new();
        rx.on_data(TltMark::None);
        assert_eq!(rx.mark_for_ack(), TltMark::None);
    }

    /// Under randomly generated interleavings of sends, echoes, and clocking
    /// consultations, at most one important packet is ever in flight, and
    /// clocking only fires when armed (seeded, so failures reproduce).
    #[test]
    fn prop_one_important_in_flight() {
        let mut rng = eventsim::SimRng::seed_from(0x111);
        for case in 0..128 {
            let mut tlt = WindowTltSender::new(WindowTltConfig::default());
            // Close the initial phase deterministically first.
            let mut in_flight: i32 = i32::from(tlt.mark_data(false) == TltMark::ImportantData);
            assert_eq!(in_flight, 1, "case {case}");
            let ops = rng.gen_range_usize(1..200);
            for _ in 0..ops {
                match rng.gen_range_u64(0..4) {
                    0 => {
                        if tlt.mark_data(true) == TltMark::ImportantData {
                            in_flight += 1;
                        }
                    }
                    1 => {
                        if tlt.mark_data(false) == TltMark::ImportantData {
                            in_flight += 1;
                        }
                    }
                    2 => {
                        // An echo can only arrive for an in-flight important.
                        if in_flight > 0 {
                            tlt.on_ack(TltMark::ImportantEcho, 0, 0);
                            in_flight -= 1;
                        }
                    }
                    _ => {
                        if tlt.take_clocking(false, 1440).is_some() {
                            in_flight += 1; // clock packets are important too
                        }
                    }
                }
                assert!(
                    (0..=1).contains(&in_flight),
                    "case {case}: {in_flight} important packets in flight"
                );
            }
        }
    }

    /// The receiver echoes exactly as many importants as it saw, never
    /// inventing marks.
    #[test]
    fn prop_receiver_conserves_echoes() {
        let mut rng = eventsim::SimRng::seed_from(0x222);
        for case in 0..128 {
            let mut rx = WindowTltReceiver::new();
            let mut pending: u32 = 0;
            let mut echoes: u32 = 0;
            let mut seen: u32 = 0;
            let ops = rng.gen_range_usize(1..200);
            for _ in 0..ops {
                match rng.gen_range_u64(0..3) {
                    0 => rx.on_data(TltMark::None),
                    1 => {
                        rx.on_data(TltMark::ImportantData);
                        seen += 1;
                        pending = 1; // state holds at most one pending echo
                    }
                    _ => {
                        let e = rx.mark_for_ack();
                        if e != TltMark::None {
                            echoes += 1;
                            assert!(pending > 0, "case {case}: echo without data");
                            pending = 0;
                        }
                    }
                }
                assert!(echoes <= seen, "case {case}");
            }
        }
    }

    /// The figure-3(a) exchange: three important packets (SEQ 1, 3, 6 in
    /// packet units) emerge from a six-packet flow with a window of two.
    #[test]
    fn figure3a_marking_sequence() {
        let mut tx = WindowTltSender::new(WindowTltConfig::default());
        let mut rx = WindowTltReceiver::new();
        let mut important_seqs = Vec::new();

        // Initial window of 2: SEQ 1, SEQ 2 — SEQ 2... In the figure the
        // initial window is 1 packet wide at SEQ 1 and grows; we model the
        // figure's trace: SEQ 1 important (initial window of 1).
        if tx.mark_data(false) == TltMark::ImportantData {
            important_seqs.push(1);
        }
        // Echo of SEQ 1 (ACK 2) arrives; window now 2: send SEQ 2, SEQ 3.
        rx.on_data(TltMark::ImportantData);
        tx.on_ack(rx.mark_for_ack(), 2, 1);
        if tx.mark_data(true) == TltMark::ImportantData {
            important_seqs.push(2);
        }
        if tx.mark_data(false) == TltMark::ImportantData {
            important_seqs.push(3);
        }
        // The figure marks SEQ 3 (first send after the echo in its trace);
        // our Algorithm-1 reading marks the first packet after the echo.
        assert_eq!(important_seqs, vec![1, 2]);
        // Echo for packet 2; next send (SEQ 4) becomes important.
        rx.on_data(TltMark::ImportantData);
        tx.on_ack(rx.mark_for_ack(), 3, 2);
        assert_eq!(tx.mark_data(true), TltMark::ImportantData);
        // Exactly one in flight at any point: no further marks until echo.
        assert_eq!(tx.mark_data(false), TltMark::None);
    }
}
