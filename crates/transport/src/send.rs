//! The send path both sender families share: TLT chooses a mark, and
//! [`SendPath`] builds, colors, counts and traces the data packet (§5), and
//! counts and traces each retransmission and timeout, so [`SenderStats`]
//! and the trace agree for window and rate senders alike.

use eventsim::SimTime;
use netsim::packet::{FlowId, Packet, TltMark};
use telemetry::{TraceEvent, Tracer};

use crate::iface::{Ctx, SenderStats};

/// A sender's flow identity, counters and trace handle.
pub(crate) struct SendPath {
    flow: FlowId,
    flow_bytes: u64,
    ecn_capable: bool,
    pub(crate) stats: SenderStats,
    pub(crate) tracer: Tracer,
}

impl SendPath {
    pub(crate) fn new(flow: FlowId, flow_bytes: u64, ecn_capable: bool) -> SendPath {
        SendPath {
            flow,
            flow_bytes,
            ecn_capable,
            stats: SenderStats::default(),
            tracer: Tracer::off(),
        }
    }

    /// Sends `[seq, seq + len)` as one data packet and returns its wire
    /// size. `mark` is what the sender's TLT layer chose, `None` with TLT
    /// off; an `ImportantClockData` mark counts as a clocking packet.
    pub(crate) fn send_data(
        &mut self,
        seq: u64,
        len: u32,
        is_retx: bool,
        mark: Option<TltMark>,
        ctx: &mut Ctx,
    ) -> u32 {
        let mut pkt = Packet::data(self.flow, seq, len);
        pkt.is_retx = is_retx;
        pkt.ecn_capable = self.ecn_capable;
        pkt.ts = ctx.now;
        pkt.is_tail = seq + u64::from(len) >= self.flow_bytes;
        pkt.mark = mark.unwrap_or(TltMark::None);
        pkt.colorize(mark.is_some());
        let important = pkt.mark.is_important();
        self.stats.data_pkts_sent += 1;
        self.stats.bytes_sent += u64::from(len);
        if important {
            self.stats.important_pkts += 1;
        } else {
            self.stats.unimportant_pkts += 1;
        }
        if pkt.mark == TltMark::ImportantClockData {
            self.stats.clocking_pkts += 1;
            self.stats.clocking_bytes += u64::from(len);
        }
        if mark.is_some() {
            self.tracer.emit(ctx.now, || TraceEvent::TltMark {
                flow: self.flow.0,
                seq,
                important,
            });
        }
        let wire = pkt.wire_size();
        ctx.send(pkt);
        wire
    }

    /// Counts and traces a retransmission of `seq` that no timeout caused.
    pub(crate) fn fast_retx(&mut self, seq: u64, now: SimTime) {
        self.stats.fast_retx += 1;
        self.tracer.emit(now, || TraceEvent::FastRetx {
            flow: self.flow.0,
            seq,
        });
    }

    /// Counts and traces a retransmission timeout; `snd_una` is the oldest
    /// unacknowledged byte.
    pub(crate) fn timeout(&mut self, snd_una: u64, now: SimTime) {
        self.stats.timeouts += 1;
        self.stats.last_rto_seq = snd_una;
        self.tracer.emit(now, || TraceEvent::Timeout {
            flow: self.flow.0,
            seq: snd_una,
        });
    }
}
