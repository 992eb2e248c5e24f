//! TLT for rate-based transports (§5.2).
//!
//! Rate-based transports (DCQCN) transmit continuously under a rate limiter
//! and detect losses via receiver NACKs on out-of-order arrival. They stall
//! in two situations:
//!
//! 1. the *tail* of the flow is lost — the receiver never observes an
//!    out-of-order arrival, so it never NACKs;
//! 2. the *first retransmitted packet* of a recovery round is lost — the
//!    duplicate NACK is indistinguishable from the first one (Figure 4).
//!
//! The rate-based TLT sender therefore marks important: the last packet of
//! the flow, optionally one packet in every N (timely loss detection for
//! long flows), and the first **and** last packet of every retransmission
//! round. All control packets (ACK/NACK/CNP) are important by construction
//! (`Packet::colorize`).

use netsim::packet::TltMark;

/// Configuration of the rate-based TLT layer.
#[derive(Clone, Copy, Debug)]
pub struct RateTltConfig {
    /// Mark one packet important in every `every_n` transmissions (§5.2:
    /// "N should be larger than the fan-out degree"; the paper uses 96 and
    /// finds tail FCT insensitive between 96 and 384). `None` disables
    /// periodic marking.
    pub every_n: Option<u32>,
}

impl Default for RateTltConfig {
    fn default() -> Self {
        RateTltConfig { every_n: Some(96) }
    }
}

/// Sender-side TLT marking for rate-based transports.
///
/// The owning transport reports two things: every outgoing data packet via
/// [`RateTltSender::mark_data`], and the start of each retransmission round
/// via [`RateTltSender::start_retx_round`].
///
/// # Examples
///
/// ```
/// use tlt_core::{RateTltSender, RateTltConfig};
/// use netsim::packet::TltMark;
///
/// let mut tlt = RateTltSender::new(RateTltConfig { every_n: None });
/// // 3-packet flow of 3000 bytes, MTU 1000: only the tail is marked.
/// assert_eq!(tlt.mark_data(1000, 3000, false), TltMark::None);
/// assert_eq!(tlt.mark_data(2000, 3000, false), TltMark::None);
/// assert_eq!(tlt.mark_data(3000, 3000, false), TltMark::ImportantData);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct RateTltSender {
    cfg: RateTltConfig,
    since_important: u32,
    /// Pending retransmission round: `Some((first_pending, end_seq))`.
    round: Option<(bool, u64)>,
}

impl RateTltSender {
    /// Creates a rate-based TLT marking layer.
    pub fn new(cfg: RateTltConfig) -> RateTltSender {
        RateTltSender {
            cfg,
            since_important: 0,
            round: None,
        }
    }

    /// Declares that a retransmission round is starting and will re-send
    /// data up to (exclusive) `end_seq`. The first and last packets of the
    /// round will be marked important (Figure 4).
    pub fn start_retx_round(&mut self, end_seq: u64) {
        match &mut self.round {
            // A new round subsumes an in-progress one (e.g. a second
            // rollback): re-mark the first packet, extend the end.
            Some((first_pending, end)) => {
                *first_pending = true;
                *end = (*end).max(end_seq);
            }
            None => self.round = Some((true, end_seq)),
        }
    }

    /// Chooses the mark for an outgoing data packet ending (exclusive) at
    /// `seq_end` of a `flow_bytes`-byte flow.
    pub fn mark_data(&mut self, seq_end: u64, flow_bytes: u64, is_retx: bool) -> TltMark {
        let mut important = false;

        // Tail of the flow (timely loss detection, §5.2).
        if seq_end >= flow_bytes {
            important = true;
        }

        // Retransmission round boundaries (timely loss recovery, §5.2).
        if let Some((first_pending, end)) = self.round {
            if is_retx {
                if first_pending {
                    important = true;
                    self.round = Some((false, end));
                }
                if seq_end >= end {
                    important = true;
                    self.round = None;
                }
            }
        }

        // Periodic marking for long flows.
        if let Some(n) = self.cfg.every_n {
            self.since_important += 1;
            if self.since_important >= n {
                important = true;
            }
        }

        if important {
            self.since_important = 0;
            TltMark::ImportantData
        } else {
            TltMark::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_periodic() -> RateTltSender {
        RateTltSender::new(RateTltConfig { every_n: None })
    }

    #[test]
    fn only_tail_marked_without_losses() {
        let mut tlt = no_periodic();
        let flow = 10_000u64;
        let mut marks = Vec::new();
        let mut seq = 0;
        while seq < flow {
            let end = (seq + 1000).min(flow);
            marks.push(tlt.mark_data(end, flow, false));
            seq = end;
        }
        assert_eq!(marks.len(), 10);
        assert!(marks[..9].iter().all(|m| *m == TltMark::None));
        assert_eq!(marks[9], TltMark::ImportantData);
        let important = marks.iter().filter(|m| m.is_important()).count();
        assert_eq!((important, marks.len() - important), (1, 9));
    }

    #[test]
    fn every_n_marks_periodically() {
        let mut tlt = RateTltSender::new(RateTltConfig { every_n: Some(4) });
        let flow = 100_000u64;
        let mut marked = Vec::new();
        let mut seq = 0;
        let mut i = 0;
        while seq < flow - 1000 {
            let end = seq + 1000;
            if tlt.mark_data(end, flow, false) == TltMark::ImportantData {
                marked.push(i);
            }
            seq = end;
            i += 1;
        }
        assert_eq!(
            marked,
            vec![
                3, 7, 11, 15, 19, 23, 27, 31, 35, 39, 43, 47, 51, 55, 59, 63, 67, 71, 75, 79, 83,
                87, 91, 95
            ],
            "every 4th packet marked"
        );
    }

    #[test]
    fn figure4_retx_round_marks_first_and_last() {
        // Flow of 5 packets; 3 and 4 lost; packet 5 (tail) was important and
        // triggers a NACK; the retransmission round re-sends 3..5.
        let mut tlt = no_periodic();
        let flow = 5_000u64;
        for p in 0..4u64 {
            let m = tlt.mark_data((p + 1) * 1000, flow, false);
            assert_eq!(m, TltMark::None, "packet {p}");
        }
        assert_eq!(tlt.mark_data(5000, flow, false), TltMark::ImportantData);

        // NACK(3) arrives -> round covering [2000, 4000).
        tlt.start_retx_round(4000);
        // First retransmitted packet: important (the Figure 4 fix).
        assert_eq!(tlt.mark_data(3000, flow, true), TltMark::ImportantData);
        // Last packet of the round: important too.
        assert_eq!(tlt.mark_data(4000, flow, true), TltMark::ImportantData);
        // Round is over; new transmissions unmarked (not tail).
        assert_eq!(tlt.mark_data(4000, flow, true), TltMark::None);
    }

    #[test]
    fn single_packet_round_gets_one_mark() {
        let mut tlt = no_periodic();
        tlt.start_retx_round(1000);
        // One packet covers the whole round: marked once (first == last).
        let marks = [
            tlt.mark_data(1000, 10_000, true),
            tlt.mark_data(2000, 10_000, true),
        ];
        assert_eq!(marks, [TltMark::ImportantData, TltMark::None]);
    }

    #[test]
    fn nested_rounds_extend_and_remark() {
        let mut tlt = no_periodic();
        tlt.start_retx_round(4000);
        assert_eq!(tlt.mark_data(1000, 10_000, true), TltMark::ImportantData);
        // Second rollback while the first round is still open.
        tlt.start_retx_round(2000);
        // First packet of the new round is re-marked...
        assert_eq!(tlt.mark_data(1000, 10_000, true), TltMark::ImportantData);
        assert_eq!(tlt.mark_data(2000, 10_000, true), TltMark::None);
        // ...and the round end is the max of both rounds.
        assert_eq!(tlt.mark_data(4000, 10_000, true), TltMark::ImportantData);
    }

    #[test]
    fn new_data_does_not_close_round() {
        let mut tlt = no_periodic();
        tlt.start_retx_round(2000);
        // A non-retransmission at the round boundary leaves the round open.
        assert_eq!(tlt.mark_data(3000, 10_000, false), TltMark::None);
        assert_eq!(tlt.mark_data(1000, 10_000, true), TltMark::ImportantData);
        assert_eq!(tlt.mark_data(2000, 10_000, true), TltMark::ImportantData);
    }

    #[test]
    fn periodic_counter_resets_on_any_important() {
        let mut tlt = RateTltSender::new(RateTltConfig { every_n: Some(10) });
        // Tail mark resets the periodic counter.
        for i in 0..5 {
            tlt.mark_data((i + 1) * 1000, 1_000_000, false);
        }
        tlt.start_retx_round(1000);
        assert_eq!(tlt.mark_data(1000, 1_000_000, true), TltMark::ImportantData);
        // Nine more unmarked sends before the next periodic mark.
        for i in 0..9 {
            assert_eq!(
                tlt.mark_data((i + 1) * 1000, 1_000_000, false),
                TltMark::None,
                "packet {i} after reset"
            );
        }
        assert_eq!(
            tlt.mark_data(1000, 1_000_000, false),
            TltMark::ImportantData
        );
    }
}
