//! Shared-buffer switch model.
//!
//! Models the memory management unit (MMU) of a commodity switching chip
//! (Broadcom Trident II / Tomahawk class) at the level of detail the TLT
//! paper relies on:
//!
//! - a single shared buffer pool of `total_buffer` bytes,
//! - per-egress-queue **dynamic threshold** admission (Choudhury–Hahne):
//!   an arriving packet is dropped when `Q_i >= α · (B − ΣQ)` \[26\],
//! - **color-aware dropping** (§4.1–4.2): packets colored red (unimportant)
//!   are proactively dropped once the egress queue occupancy reaches the
//!   color-aware dropping threshold K, while green (important) packets may
//!   queue beyond it,
//! - ECN marking: DCTCP single-threshold or DCQCN RED-style probabilistic,
//! - PFC ingress accounting with XOFF/XON thresholds,
//! - INT telemetry appended at dequeue for HPCC.
//!
//! The switch is a passive state machine: `enqueue` / `dequeue` return the
//! side effects (drops, CE marks, PFC signals) and the engine turns them
//! into events. This keeps every mechanism unit-testable without a network.

#![deny(clippy::cast_possible_truncation)]

use eventsim::{SimRng, SimTime};
use telemetry::{DropWhy, TraceEvent, Tracer};

use crate::packet::{Color, FrameQueue, IntHop, PacketRef, PacketSlab};
use crate::topology::PortId;

/// ECN marking discipline of an egress queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EcnConfig {
    /// No ECN marking.
    Off,
    /// DCTCP-style: mark every arriving packet while the instantaneous
    /// egress queue exceeds `k` bytes.
    Threshold {
        /// Marking threshold in bytes (the paper's K_ECN).
        k: u64,
    },
    /// DCQCN-style RED: mark with probability ramping from 0 at `kmin` to
    /// `pmax` at `kmax`, and always above `kmax`.
    Red {
        /// Lower threshold in bytes (K_min).
        kmin: u64,
        /// Upper threshold in bytes (K_max).
        kmax: u64,
        /// Marking probability at `kmax`.
        pmax: f64,
    },
}

/// PFC (802.1Qbb) ingress accounting thresholds, in bytes per ingress port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PfcConfig {
    /// Send PAUSE upstream when an ingress port's buffered bytes exceed this.
    pub xoff: u64,
    /// Send RESUME when the ingress port's buffered bytes fall to/below this.
    pub xon: u64,
}

impl PfcConfig {
    /// Derives conventional thresholds from the shared buffer size and port
    /// count: XOFF at an equal share of half the buffer, XON two MTUs below.
    pub fn derive(total_buffer: u64, ports: usize) -> PfcConfig {
        let xoff = (total_buffer / 2 / ports.max(1) as u64).max(6_000);
        PfcConfig {
            xoff,
            xon: xoff.saturating_sub(3_000),
        }
    }
}

/// Why an arriving packet was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Red packet proactively dropped at the color-aware threshold (§4.1).
    ColorThreshold,
    /// Dropped by dynamic-threshold admission (congestion drop).
    DynamicThreshold,
    /// Shared buffer completely exhausted (only reachable under PFC when
    /// pause signaling could not stop the sources in time).
    BufferOverflow,
}

/// A PFC signal the switch asks the engine to deliver upstream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PfcSignal {
    /// Pause the upstream transmitter feeding `ingress`.
    Pause(PortId),
    /// Resume the upstream transmitter feeding `ingress`.
    Resume(PortId),
}

/// Result of offering a packet to the switch.
#[derive(Clone, Copy, Debug)]
pub struct EnqueueOutcome {
    /// Whether the packet was admitted to the egress queue.
    pub enqueued: bool,
    /// Set when the packet was dropped.
    pub drop: Option<DropReason>,
    /// Set when the packet was CE-marked on admission.
    pub ce_marked: bool,
    /// PFC signal to deliver upstream, if any.
    pub pfc: Option<PfcSignal>,
}

/// Static configuration of a [`Switch`].
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// Number of ports (each port is both an ingress and an egress).
    pub ports: usize,
    /// Shared buffer pool size in bytes.
    pub total_buffer: u64,
    /// Dynamic threshold parameter α \[26\]. The paper uses α = 1.
    pub alpha: f64,
    /// Color-aware dropping threshold K in bytes; `None` disables the
    /// feature (baseline commodity behavior).
    pub color_threshold: Option<u64>,
    /// ECN marking discipline.
    pub ecn: EcnConfig,
    /// PFC thresholds; `None` leaves the network lossy.
    pub pfc: Option<PfcConfig>,
    /// Append INT telemetry at dequeue (HPCC).
    pub int_enabled: bool,
    /// Default port line rate in bits per second, recorded in INT hops;
    /// [`Switch::set_port_rate`] overrides it per egress port.
    pub port_rate_bps: u64,
}

impl SwitchConfig {
    /// A Trident II-like profile scaled to `ports` ports: the paper's
    /// simulations allocate 4.5 MB and 12 ports per switch to emulate a
    /// 12 MB / 32-port chip.
    pub fn trident2(ports: usize) -> SwitchConfig {
        let total_buffer = 4_500_000 * ports as u64 / 12;
        SwitchConfig {
            ports,
            total_buffer,
            alpha: 1.0,
            color_threshold: None,
            ecn: EcnConfig::Off,
            pfc: None,
            int_enabled: false,
            port_rate_bps: 40_000_000_000,
        }
    }
}

/// Aggregate counters exposed by a switch.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchStats {
    /// Packets admitted.
    pub enq_pkts: u64,
    /// Bytes admitted (wire sizes).
    pub enq_bytes: u64,
    /// Green data packets admitted (denominator for important loss rate).
    pub green_data_pkts: u64,
    /// Red packets proactively dropped at the color threshold.
    pub drops_color: u64,
    /// Packets dropped by dynamic-threshold admission.
    pub drops_dt: u64,
    /// Packets dropped on total buffer exhaustion.
    pub drops_overflow: u64,
    /// Green *data* packets dropped for any reason (important packet losses,
    /// the quantity Table 1 of the paper reports).
    pub drops_green_data: u64,
    /// Packets CE-marked.
    pub ce_marked: u64,
    /// PAUSE frames sent upstream.
    pub pauses_sent: u64,
    /// RESUME frames sent upstream.
    pub resumes_sent: u64,
    /// Maximum single egress queue depth observed (bytes).
    pub max_queue_bytes: u64,
    /// Maximum shared-buffer occupancy observed (bytes).
    pub max_total_bytes: u64,
}

/// Debug-build MMU ledger: independent byte totals for every way a
/// frame can enter or leave the shared buffer. `audit_conservation`
/// cross-checks them against the live occupancy and [`SwitchStats`], so a
/// new admission/drop path that forgets its bookkeeping fails the next
/// audit instead of silently skewing figures.
#[cfg(debug_assertions)]
#[derive(Clone, Copy, Debug, Default)]
struct MmuLedger {
    /// Bytes offered to `enqueue` (admitted or not).
    offered_bytes: u64,
    /// Bytes admitted to the shared pool.
    admitted_bytes: u64,
    /// Bytes removed by `dequeue`.
    forwarded_bytes: u64,
    /// Bytes rejected (any drop reason).
    dropped_bytes: u64,
}

/// A shared-buffer output-queued switch.
///
/// Buffered packets live in the caller's [`PacketSlab`], and each egress
/// queue is a [`FrameQueue`] threaded through the frames' slab links: a
/// frame is never copied while it sits in (or crosses) the MMU, and an
/// idle port holds no buffer. What the switch needs of a queued frame at
/// its dequeue is read back from the frame: its wire size, and the
/// ingress port `enqueue` stamped into it.
///
/// # Examples
///
/// ```
/// use netsim::{Packet, PacketSlab, FlowId, Switch, SwitchConfig, PortId};
/// use netsim::switch::EcnConfig;
/// use eventsim::SimTime;
///
/// let mut cfg = SwitchConfig::trident2(4);
/// cfg.color_threshold = Some(400_000);
/// let mut sw = Switch::new(cfg, 1);
/// let mut slab = PacketSlab::new();
/// let mut pkt = Packet::data(FlowId(0), 0, 1440);
/// pkt.colorize(true); // red: unimportant
/// let pkt = slab.insert(pkt);
/// let out = sw.enqueue(pkt, &mut slab, PortId(0), PortId(1), SimTime::ZERO);
/// assert!(out.enqueued);
/// ```
pub struct Switch {
    cfg: SwitchConfig,
    queues: Vec<FrameQueue>,
    q_bytes: Vec<u64>,
    total_bytes: u64,
    ingress_bytes: Vec<u64>,
    pause_sent: Vec<bool>,
    storm: Vec<bool>,
    tx_bytes: Vec<u64>,
    /// Line rate of each egress port, stamped into its INT hops.
    port_rate: Vec<u64>,
    stats: SwitchStats,
    rng: SimRng,
    tracer: Tracer,
    node: u32,
    #[cfg(debug_assertions)]
    ledger: MmuLedger,
}

impl Switch {
    /// Creates a switch from `cfg`, seeding its RED marker from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no ports, more than
    /// `u16::MAX` of them, zero buffer, non-positive α, or XON above XOFF).
    pub fn new(cfg: SwitchConfig, seed: u64) -> Switch {
        assert!(cfg.ports > 0, "switch needs at least one port");
        // A queued frame records its ingress port in a `u16`.
        assert!(
            cfg.ports <= usize::from(u16::MAX),
            "a switch has at most {} ports",
            u16::MAX
        );
        assert!(cfg.total_buffer > 0, "switch needs buffer space");
        assert!(cfg.alpha > 0.0, "alpha must be positive");
        if let Some(pfc) = cfg.pfc {
            assert!(pfc.xon <= pfc.xoff, "XON must not exceed XOFF");
        }
        let n = cfg.ports;
        Switch {
            port_rate: vec![cfg.port_rate_bps; n],
            cfg,
            queues: vec![FrameQueue::new(); n],
            q_bytes: vec![0; n],
            total_bytes: 0,
            ingress_bytes: vec![0; n],
            pause_sent: vec![false; n],
            storm: vec![false; n],
            tx_bytes: vec![0; n],
            stats: SwitchStats::default(),
            rng: SimRng::seed_from(seed ^ 0xD1E5_EA5E),
            tracer: Tracer::off(),
            node: 0,
            #[cfg(debug_assertions)]
            ledger: MmuLedger::default(),
        }
    }

    /// Audits MMU conservation and PFC parity (debug builds only):
    ///
    /// - every offered byte was admitted or dropped, never both or neither;
    /// - admitted bytes equal forwarded bytes plus current occupancy;
    /// - occupancy equals the sum of per-queue depths and never exceeds the
    ///   pool (the shared pool cannot go "negative" or overflow);
    /// - PAUSEs sent minus RESUMEs sent equals the number of currently
    ///   paused ingress ports (pause/resume parity, storms included).
    ///
    /// Runs automatically after every `enqueue`/`dequeue`; also callable at
    /// drain time by the engine. All checks are `debug_assert!`-based.
    #[cfg(debug_assertions)]
    pub fn audit_conservation(&self) {
        let l = &self.ledger;
        debug_assert_eq!(
            l.offered_bytes,
            l.admitted_bytes + l.dropped_bytes,
            "MMU ledger: offered != admitted + dropped"
        );
        debug_assert_eq!(
            l.admitted_bytes,
            l.forwarded_bytes + self.total_bytes,
            "MMU ledger: admitted != forwarded + buffered"
        );
        let sum: u64 = self.q_bytes.iter().sum();
        debug_assert_eq!(sum, self.total_bytes, "queue depths out of sync with pool");
        // `dequeue` re-reads each frame's wire size instead of caching the
        // one `enqueue` admitted: a frame whose size changed in between
        // leaves bytes behind in (or underflows) its queue's depth.
        for (e, q) in self.queues.iter().enumerate() {
            debug_assert!(
                !q.is_empty() || self.q_bytes[e] == 0,
                "egress {e} is empty but holds {} bytes",
                self.q_bytes[e]
            );
        }
        debug_assert!(
            self.total_bytes <= self.cfg.total_buffer,
            "shared pool over-committed: {} > {}",
            self.total_bytes,
            self.cfg.total_buffer
        );
        debug_assert_eq!(
            l.admitted_bytes, self.stats.enq_bytes,
            "ledger vs stats drift"
        );
        let paused = self.pause_sent.iter().filter(|p| **p).count() as u64;
        debug_assert_eq!(
            self.stats.pauses_sent.checked_sub(self.stats.resumes_sent),
            Some(paused),
            "PFC pause/resume parity broken"
        );
    }

    /// Deliberately unbalances the ledger so tests can prove the audit is
    /// live (a dead auditor is worse than none).
    #[cfg(all(test, debug_assertions))]
    fn corrupt_ledger_for_test(&mut self) {
        self.ledger.admitted_bytes += 1;
    }

    /// Attaches a trace sink; emitted events carry `node` as this switch's
    /// id. With the default [`Tracer::off`] every emit is a no-op.
    pub fn set_tracer(&mut self, tracer: Tracer, node: u32) {
        self.tracer = tracer;
        self.node = node;
    }

    /// Sets the line rate of egress `port`: links of different speeds can
    /// hang off one switch, and HPCC normalises each hop's utilisation by
    /// the capacity that hop reports.
    pub fn set_port_rate(&mut self, port: PortId, bps: u64) {
        self.port_rate[port.0 as usize] = bps;
    }

    /// This switch's configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Current depth of egress queue `port`, in bytes.
    #[inline]
    pub fn queue_bytes(&self, port: PortId) -> u64 {
        self.q_bytes[port.0 as usize]
    }

    /// Current shared-buffer occupancy, in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Whether egress queue `port` holds any packet.
    #[inline]
    pub fn has_packets(&self, port: PortId) -> bool {
        !self.queues[port.0 as usize].is_empty()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &SwitchStats {
        &self.stats
    }

    /// Offers `pkt` (a handle into `slab`), which arrived on `ingress`, to
    /// egress queue `egress`.
    ///
    /// Applies, in order: color-aware dropping, dynamic-threshold admission
    /// (lossy mode) or overflow protection (PFC mode), ECN marking, PFC
    /// ingress accounting. On admission the switch keeps the handle until
    /// [`Switch::dequeue`]; on rejection the slab slot is released before
    /// returning (the frame is gone).
    ///
    /// # Panics
    ///
    /// Panics if `egress` or `ingress` is out of range.
    pub fn enqueue(
        &mut self,
        pkt: PacketRef,
        slab: &mut PacketSlab,
        ingress: PortId,
        egress: PortId,
        now: SimTime,
    ) -> EnqueueOutcome {
        let e = egress.0 as usize;
        let i = ingress.0 as usize;
        let (wire, is_green_data, is_control, color, ecn_capable, flow, seq) = {
            let p = slab.get(pkt);
            (
                u64::from(p.wire_size()),
                p.color == Color::Green && !p.is_control(),
                p.is_control(),
                p.color,
                p.ecn_capable,
                p.flow.0,
                p.seq,
            )
        };
        let q = self.q_bytes[e];
        #[cfg(debug_assertions)]
        {
            self.ledger.offered_bytes += wire;
        }

        let reject = |this: &mut Self, slab: &mut PacketSlab, reason: DropReason| {
            // A rejected frame dies here: release its arena slot.
            drop(slab.take(pkt));
            #[cfg(debug_assertions)]
            {
                this.ledger.dropped_bytes += wire;
            }
            match reason {
                DropReason::ColorThreshold => this.stats.drops_color += 1,
                DropReason::DynamicThreshold => this.stats.drops_dt += 1,
                DropReason::BufferOverflow => this.stats.drops_overflow += 1,
            }
            if is_green_data {
                this.stats.drops_green_data += 1;
            }
            this.tracer.emit(now, || TraceEvent::Drop {
                node: this.node,
                port: egress.0,
                flow,
                seq,
                why: match reason {
                    DropReason::ColorThreshold => DropWhy::Color,
                    DropReason::DynamicThreshold => DropWhy::Dynamic,
                    DropReason::BufferOverflow => DropWhy::Overflow,
                },
                green: is_green_data,
            });
            #[cfg(debug_assertions)]
            this.audit_conservation();
            EnqueueOutcome {
                enqueued: false,
                drop: Some(reason),
                ce_marked: false,
                pfc: None,
            }
        };

        // 1. Color-aware dropping: red packets may not push the egress queue
        //    beyond K; green packets bypass K entirely (§4.1).
        if let Some(k) = self.cfg.color_threshold {
            if color == Color::Red && q + wire > k {
                return reject(self, slab, DropReason::ColorThreshold);
            }
        }

        // 2. Buffer admission.
        if self.total_bytes + wire > self.cfg.total_buffer {
            // The pool itself is exhausted; nothing can be admitted.
            return reject(self, slab, DropReason::BufferOverflow);
        }
        if self.cfg.pfc.is_none() {
            // Lossy mode: dynamic-threshold admission. An arriving packet is
            // dropped if Q_i >= alpha * (B - occupancy) \[26\].
            let free = self.cfg.total_buffer - self.total_bytes;
            if q as f64 >= self.cfg.alpha * free as f64 {
                return reject(self, slab, DropReason::DynamicThreshold);
            }
        }

        // 3. ECN marking on admission.
        let mut ce_marked = false;
        if ecn_capable && !is_control {
            let marked = match self.cfg.ecn {
                EcnConfig::Off => false,
                EcnConfig::Threshold { k } => q + wire > k,
                EcnConfig::Red { kmin, kmax, pmax } => {
                    if q <= kmin {
                        false
                    } else if q >= kmax {
                        true
                    } else {
                        let p = pmax * (q - kmin) as f64 / (kmax - kmin).max(1) as f64;
                        self.rng.gen_bool(p)
                    }
                }
            };
            if marked {
                slab.get_mut(pkt).ce = true;
                ce_marked = true;
                self.stats.ce_marked += 1;
            }
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "Switch::new bounds the port count at u16::MAX"
        )]
        let ingress_port = ingress.0 as u16;
        slab.get_mut(pkt).ingress = ingress_port;

        // 4. Commit.
        #[cfg(debug_assertions)]
        {
            self.ledger.admitted_bytes += wire;
        }
        self.q_bytes[e] += wire;
        self.total_bytes += wire;
        self.ingress_bytes[i] += wire;
        self.stats.enq_pkts += 1;
        self.stats.enq_bytes += wire;
        if is_green_data {
            self.stats.green_data_pkts += 1;
        }
        self.stats.max_queue_bytes = self.stats.max_queue_bytes.max(self.q_bytes[e]);
        self.stats.max_total_bytes = self.stats.max_total_bytes.max(self.total_bytes);
        self.queues[e].push_back(slab, pkt);
        if ce_marked {
            self.tracer.emit(now, || TraceEvent::CeMark {
                node: self.node,
                port: egress.0,
                flow,
                seq,
                qlen: q,
            });
        }
        self.tracer.emit(now, || TraceEvent::Enqueue {
            node: self.node,
            port: egress.0,
            flow,
            seq,
            qlen: self.q_bytes[e],
        });

        // 5. PFC ingress accounting: cross XOFF -> ask engine to pause the
        //    upstream transmitter.
        let mut pfc = None;
        if let Some(p) = self.cfg.pfc {
            if !self.pause_sent[i] && self.ingress_bytes[i] > p.xoff {
                self.pause_sent[i] = true;
                self.stats.pauses_sent += 1;
                pfc = Some(PfcSignal::Pause(ingress));
                self.tracer.emit(now, || TraceEvent::PfcXoff {
                    node: self.node,
                    port: ingress.0,
                });
            }
        }

        #[cfg(debug_assertions)]
        self.audit_conservation();
        EnqueueOutcome {
            enqueued: true,
            drop: None,
            ce_marked,
            pfc,
        }
    }

    /// Removes the head-of-line packet of egress queue `egress`.
    ///
    /// Returns the packet's arena handle (with an INT hop appended in the
    /// slab when enabled) and an optional PFC RESUME signal triggered by the
    /// freed ingress budget. Ownership of the handle passes back to the
    /// caller; the switch no longer tracks it.
    pub fn dequeue(
        &mut self,
        slab: &mut PacketSlab,
        egress: PortId,
        now: SimTime,
    ) -> (Option<PacketRef>, Option<PfcSignal>) {
        let e = egress.0 as usize;
        let Some(pkt) = self.queues[e].pop_front(slab) else {
            return (None, None);
        };
        // The frame is as `enqueue` admitted it (only a CE mark, which
        // changes no size, was written since): its size and ingress are
        // read back here, before this hop's INT record grows it.
        let p = slab.get(pkt);
        let (wire, ingress, flow, seq) = (
            u64::from(p.wire_size()),
            PortId(u32::from(p.ingress)),
            p.flow.0,
            p.seq,
        );
        #[cfg(debug_assertions)]
        {
            self.ledger.forwarded_bytes += wire;
        }
        self.q_bytes[e] -= wire;
        self.total_bytes -= wire;
        let i = ingress.0 as usize;
        self.ingress_bytes[i] -= wire;
        self.tx_bytes[e] += wire;

        if self.cfg.int_enabled && !p.is_control() {
            slab.push_int(
                pkt,
                IntHop {
                    q_len: self.q_bytes[e],
                    tx_bytes: self.tx_bytes[e],
                    ts: now,
                    rate_bps: self.port_rate[e],
                },
            );
        }

        self.tracer.emit(now, || TraceEvent::Dequeue {
            node: self.node,
            port: egress.0,
            flow,
            seq,
            qlen: self.q_bytes[e],
        });

        let mut pfc = None;
        if let Some(p) = self.cfg.pfc {
            // A spurious pause storm holds the ingress paused regardless of
            // the real occupancy; the resume is deferred to `storm_xon`.
            if self.pause_sent[i] && !self.storm[i] && self.ingress_bytes[i] <= p.xon {
                self.pause_sent[i] = false;
                self.stats.resumes_sent += 1;
                pfc = Some(PfcSignal::Resume(ingress));
                self.tracer.emit(now, || TraceEvent::PfcXon {
                    node: self.node,
                    port: ingress.0,
                });
            }
        }
        #[cfg(debug_assertions)]
        self.audit_conservation();
        (Some(pkt), pfc)
    }

    /// Starts a spurious pause storm against `ingress`: the switch behaves
    /// as if the port's PFC counter crossed XOFF even though it did not.
    ///
    /// Composes with real congestion pauses without double-sending: if the
    /// ingress is already paused (for any reason) no new PAUSE goes out and
    /// the storm merely extends the condition. Returns the PAUSE signal to
    /// deliver upstream, if one was actually emitted.
    pub fn storm_xoff(&mut self, ingress: PortId, now: SimTime) -> Option<PfcSignal> {
        let i = ingress.0 as usize;
        self.storm[i] = true;
        if self.pause_sent[i] {
            return None;
        }
        self.pause_sent[i] = true;
        self.stats.pauses_sent += 1;
        self.tracer.emit(now, || TraceEvent::PfcXoff {
            node: self.node,
            port: ingress.0,
        });
        Some(PfcSignal::Pause(ingress))
    }

    /// Ends a pause storm on `ingress`. The port resumes immediately unless
    /// real PFC accounting still wants it paused (occupancy above XON), in
    /// which case the normal dequeue path emits the resume once the backlog
    /// drains — either way, resume always follows storm end.
    pub fn storm_xon(&mut self, ingress: PortId, now: SimTime) -> Option<PfcSignal> {
        let i = ingress.0 as usize;
        if !self.storm[i] {
            return None;
        }
        self.storm[i] = false;
        if !self.pause_sent[i] {
            return None;
        }
        if let Some(p) = self.cfg.pfc {
            if self.ingress_bytes[i] > p.xon {
                return None; // congestion genuinely persists; drain resumes
            }
        }
        self.pause_sent[i] = false;
        self.stats.resumes_sent += 1;
        self.tracer.emit(now, || TraceEvent::PfcXon {
            node: self.node,
            port: ingress.0,
        });
        Some(PfcSignal::Resume(ingress))
    }
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "drawn ports and lengths come from small ranges"
)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet, TltMark};

    fn red(len: u32) -> Packet {
        let mut p = Packet::data(FlowId(0), 0, len);
        p.colorize(true);
        assert_eq!(p.color, Color::Red);
        p
    }

    fn green(len: u32) -> Packet {
        let mut p = Packet::data(FlowId(0), 0, len);
        p.mark = TltMark::ImportantData;
        p.colorize(true);
        p
    }

    fn small_cfg() -> SwitchConfig {
        SwitchConfig {
            ports: 2,
            total_buffer: 100_000,
            alpha: 1.0,
            color_threshold: None,
            ecn: EcnConfig::Off,
            pfc: None,
            int_enabled: false,
            port_rate_bps: 40_000_000_000,
        }
    }

    /// Test harness pairing a [`Switch`] with its packet arena, restoring
    /// the by-value `enqueue`/`dequeue` shape the unit tests are written
    /// against. Inherent methods shadow the ref-based ones; everything else
    /// (stats, depths, storm control) derefs straight to the switch.
    struct Sw {
        sw: Switch,
        slab: PacketSlab,
    }

    impl Sw {
        fn new(cfg: SwitchConfig, seed: u64) -> Sw {
            Sw {
                sw: Switch::new(cfg, seed),
                slab: PacketSlab::new(),
            }
        }

        fn enqueue(
            &mut self,
            pkt: Packet,
            ingress: PortId,
            egress: PortId,
            now: SimTime,
        ) -> EnqueueOutcome {
            let r = self.slab.insert(pkt);
            self.sw.enqueue(r, &mut self.slab, ingress, egress, now)
        }

        fn dequeue(&mut self, egress: PortId, now: SimTime) -> (Option<Packet>, Option<PfcSignal>) {
            let (r, sig) = self.sw.dequeue(&mut self.slab, egress, now);
            (r.map(|r| self.slab.take(r)), sig)
        }
    }

    impl std::ops::Deref for Sw {
        type Target = Switch;
        fn deref(&self) -> &Switch {
            &self.sw
        }
    }

    impl std::ops::DerefMut for Sw {
        fn deref_mut(&mut self) -> &mut Switch {
            &mut self.sw
        }
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut sw = Sw::new(small_cfg(), 0);
        for seq in 0..5u64 {
            let mut p = Packet::data(FlowId(1), seq * 1000, 1000);
            p.colorize(false);
            assert!(sw.enqueue(p, PortId(0), PortId(1), SimTime::ZERO).enqueued);
        }
        for seq in 0..5u64 {
            let (p, _) = sw.dequeue(PortId(1), SimTime::ZERO);
            assert_eq!(p.unwrap().seq, seq * 1000);
        }
        assert_eq!(sw.total_bytes(), 0);
    }

    #[test]
    fn color_threshold_drops_red_but_not_green() {
        let mut cfg = small_cfg();
        cfg.color_threshold = Some(3_000);
        let mut sw = Sw::new(cfg, 0);
        // Fill up to K with red packets (1000 + 48 header = 1048 wire bytes).
        let mut admitted = 0;
        loop {
            let out = sw.enqueue(red(1000), PortId(0), PortId(1), SimTime::ZERO);
            if !out.enqueued {
                assert_eq!(out.drop, Some(DropReason::ColorThreshold));
                break;
            }
            admitted += 1;
        }
        assert_eq!(admitted, 2, "two 1048B packets fit under K=3000");
        assert!(sw.queue_bytes(PortId(1)) <= 3_000);
        // Green packets are still admitted beyond K.
        let out = sw.enqueue(green(1000), PortId(0), PortId(1), SimTime::ZERO);
        assert!(out.enqueued);
        assert!(sw.queue_bytes(PortId(1)) > 3_000);
        assert_eq!(sw.stats().drops_color, 1);
        assert_eq!(sw.stats().drops_green_data, 0);
    }

    #[test]
    fn dynamic_threshold_limits_queue_to_half_buffer_at_alpha_1() {
        // alpha = 1, single congested queue: Q grows until Q >= B - Q,
        // i.e. half the buffer (§4.2 / \[26\]).
        let mut sw = Sw::new(small_cfg(), 0);
        let mut dropped = false;
        for _ in 0..200 {
            let out = sw.enqueue(red(952), PortId(0), PortId(1), SimTime::ZERO);
            if !out.enqueued {
                assert_eq!(out.drop, Some(DropReason::DynamicThreshold));
                dropped = true;
                break;
            }
        }
        assert!(dropped);
        let q = sw.queue_bytes(PortId(1));
        assert!(
            (45_000..=51_000).contains(&q),
            "queue {q} should settle near B/2 = 50000"
        );
    }

    #[test]
    fn dynamic_threshold_shares_between_two_queues() {
        // Two congested queues at alpha = 1 each get ~B/3.
        let mut sw = Sw::new(small_cfg(), 0);
        let mut full = [false, false];
        while !(full[0] && full[1]) {
            for port in 0..2u32 {
                if !full[port as usize] {
                    let out = sw.enqueue(red(952), PortId(1 - port), PortId(port), SimTime::ZERO);
                    if !out.enqueued {
                        full[port as usize] = true;
                    }
                }
            }
        }
        for port in 0..2u32 {
            let q = sw.queue_bytes(PortId(port));
            assert!(
                (28_000..=38_000).contains(&q),
                "queue {q} should settle near B/3 = 33333"
            );
        }
    }

    #[test]
    fn green_packets_can_be_dropped_at_dynamic_threshold() {
        // TLT makes important losses rare, not impossible (§4.2).
        let mut sw = Sw::new(small_cfg(), 0);
        loop {
            let out = sw.enqueue(green(952), PortId(0), PortId(1), SimTime::ZERO);
            if !out.enqueued {
                assert_eq!(out.drop, Some(DropReason::DynamicThreshold));
                break;
            }
        }
        assert_eq!(sw.stats().drops_green_data, 1);
    }

    #[test]
    fn ecn_threshold_marks_above_k() {
        let mut cfg = small_cfg();
        cfg.ecn = EcnConfig::Threshold { k: 2_000 };
        let mut sw = Sw::new(cfg, 0);
        let mk = |sw: &mut Sw| {
            let mut p = Packet::data(FlowId(0), 0, 1000);
            p.ecn_capable = true;
            p.colorize(false);
            sw.enqueue(p, PortId(0), PortId(1), SimTime::ZERO)
        };
        assert!(!mk(&mut sw).ce_marked, "queue 0 + 1048 <= 2000 -> no mark");
        assert!(mk(&mut sw).ce_marked, "queue 1048 + 1048 > 2000 -> mark");
        assert!(mk(&mut sw).ce_marked, "queue 2096 -> mark");
        assert_eq!(sw.stats().ce_marked, 2);
    }

    #[test]
    fn ecn_skips_non_capable_and_control() {
        let mut cfg = small_cfg();
        cfg.ecn = EcnConfig::Threshold { k: 0 };
        let mut sw = Sw::new(cfg, 0);
        let mut p = Packet::data(FlowId(0), 0, 1000);
        p.colorize(false); // not ecn_capable
        assert!(!sw.enqueue(p, PortId(0), PortId(1), SimTime::ZERO).ce_marked);
        let mut a = Packet::ack(FlowId(0), 0);
        a.ecn_capable = true;
        assert!(!sw.enqueue(a, PortId(0), PortId(1), SimTime::ZERO).ce_marked);
    }

    #[test]
    fn red_marking_ramps_with_queue_depth() {
        let mut cfg = small_cfg();
        cfg.total_buffer = 10_000_000;
        cfg.ecn = EcnConfig::Red {
            kmin: 10_000,
            kmax: 40_000,
            pmax: 1.0,
        };
        let mut sw = Sw::new(cfg, 42);
        let mut marks_low = 0;
        let mut marks_high = 0;
        for i in 0..200 {
            let mut p = Packet::data(FlowId(0), 0, 952);
            p.ecn_capable = true;
            p.colorize(false);
            let out = sw.enqueue(p, PortId(0), PortId(1), SimTime::ZERO);
            assert!(out.enqueued);
            let q = sw.queue_bytes(PortId(1));
            if q < 10_000 && out.ce_marked {
                marks_low += 1;
            }
            if q > 45_000 && !out.ce_marked && i > 50 {
                marks_high += 1;
            }
        }
        assert_eq!(marks_low, 0, "no marks below kmin");
        assert_eq!(marks_high, 0, "always mark above kmax");
        assert!(sw.stats().ce_marked > 0);
    }

    #[test]
    fn pfc_pause_and_resume_thresholds() {
        let mut cfg = small_cfg();
        cfg.pfc = Some(PfcConfig {
            xoff: 5_000,
            xon: 3_000,
        });
        let mut sw = Sw::new(cfg, 0);
        let mut pause_seen = false;
        let mut enq = 0;
        for _ in 0..10 {
            let out = sw.enqueue(red(952), PortId(0), PortId(1), SimTime::ZERO);
            assert!(out.enqueued, "PFC mode does not drop under DT");
            enq += 1;
            if let Some(PfcSignal::Pause(p)) = out.pfc {
                assert_eq!(p, PortId(0));
                pause_seen = true;
                break;
            }
        }
        assert!(pause_seen);
        assert_eq!(enq, 6, "6 x 1000B crosses XOFF=5000");
        // Drain until RESUME fires.
        let mut resume_seen = false;
        while sw.has_packets(PortId(1)) {
            let (_, pfc) = sw.dequeue(PortId(1), SimTime::ZERO);
            if let Some(PfcSignal::Resume(p)) = pfc {
                assert_eq!(p, PortId(0));
                resume_seen = true;
                break;
            }
        }
        assert!(resume_seen);
        assert_eq!(sw.stats().pauses_sent, 1);
        assert_eq!(sw.stats().resumes_sent, 1);
    }

    #[test]
    fn pause_storm_on_idle_ingress_pauses_and_resumes() {
        // Storm on an idle port: XOFF out immediately, XON at storm end.
        let mut cfg = small_cfg();
        cfg.pfc = Some(PfcConfig {
            xoff: 5_000,
            xon: 3_000,
        });
        let mut sw = Sw::new(cfg, 0);
        let sig = sw.storm_xoff(PortId(0), SimTime::ZERO);
        assert_eq!(sig, Some(PfcSignal::Pause(PortId(0))));
        // Re-asserting the storm never double-sends pause.
        assert_eq!(sw.storm_xoff(PortId(0), SimTime::ZERO), None);
        assert_eq!(sw.stats().pauses_sent, 1);
        let sig = sw.storm_xon(PortId(0), SimTime::from_us(100));
        assert_eq!(sig, Some(PfcSignal::Resume(PortId(0))));
        assert_eq!(sw.stats().resumes_sent, 1);
        // Storm already over: nothing more to do.
        assert_eq!(sw.storm_xon(PortId(0), SimTime::from_us(101)), None);
        assert_eq!(sw.stats().resumes_sent, 1);
    }

    #[test]
    fn pause_storm_composes_with_congestion_pause() {
        // Real congestion pauses first; a storm on top must not double-send
        // XOFF, and at storm end the resume is deferred to the drain path
        // because the ingress is still above XON.
        let mut cfg = small_cfg();
        cfg.pfc = Some(PfcConfig {
            xoff: 5_000,
            xon: 3_000,
        });
        let mut sw = Sw::new(cfg, 0);
        for _ in 0..6 {
            sw.enqueue(red(952), PortId(0), PortId(1), SimTime::ZERO);
        }
        assert_eq!(sw.stats().pauses_sent, 1, "congestion pause fired");
        assert_eq!(sw.storm_xoff(PortId(0), SimTime::ZERO), None);
        assert_eq!(sw.stats().pauses_sent, 1, "storm never double-sends");
        // Storm ends while the backlog is still above XON: no resume yet.
        assert_eq!(sw.storm_xon(PortId(0), SimTime::ZERO), None);
        assert_eq!(sw.stats().resumes_sent, 0);
        // ...but the normal drain path still resumes afterwards.
        let mut resume_seen = false;
        while sw.has_packets(PortId(1)) {
            if let (_, Some(PfcSignal::Resume(p))) = sw.dequeue(PortId(1), SimTime::ZERO) {
                assert_eq!(p, PortId(0));
                resume_seen = true;
            }
        }
        assert!(resume_seen, "resume always follows storm end");
        assert_eq!(sw.stats().pauses_sent, 1);
        assert_eq!(sw.stats().resumes_sent, 1);
    }

    #[test]
    fn pause_storm_holds_resume_during_drain() {
        // Congestion pause, then a storm: even when the backlog drains
        // below XON, the dequeue path must NOT resume while the storm is
        // active — only storm end releases the port.
        let mut cfg = small_cfg();
        cfg.pfc = Some(PfcConfig {
            xoff: 5_000,
            xon: 3_000,
        });
        let mut sw = Sw::new(cfg, 0);
        for _ in 0..6 {
            sw.enqueue(red(952), PortId(0), PortId(1), SimTime::ZERO);
        }
        assert_eq!(sw.stats().pauses_sent, 1);
        sw.storm_xoff(PortId(0), SimTime::ZERO);
        while sw.has_packets(PortId(1)) {
            let (_, pfc) = sw.dequeue(PortId(1), SimTime::ZERO);
            assert!(pfc.is_none(), "storm suppresses drain resume");
        }
        // Fully drained; storm end now resumes immediately.
        let sig = sw.storm_xon(PortId(0), SimTime::from_us(50));
        assert_eq!(sig, Some(PfcSignal::Resume(PortId(0))));
        assert_eq!(sw.stats().pauses_sent, 1);
        assert_eq!(sw.stats().resumes_sent, 1);
    }

    #[test]
    fn pause_storm_without_pfc_config_still_resumes() {
        // Spurious storms can hit a lossy (non-PFC) network too; with no
        // PFC accounting the storm end must resume unconditionally.
        let mut sw = Sw::new(small_cfg(), 0);
        assert_eq!(
            sw.storm_xoff(PortId(1), SimTime::ZERO),
            Some(PfcSignal::Pause(PortId(1)))
        );
        assert_eq!(
            sw.storm_xon(PortId(1), SimTime::from_us(10)),
            Some(PfcSignal::Resume(PortId(1)))
        );
        assert_eq!(sw.stats().pauses_sent, 1);
        assert_eq!(sw.stats().resumes_sent, 1);
    }

    #[test]
    fn pfc_mode_skips_dt_but_not_overflow() {
        let mut cfg = small_cfg();
        cfg.pfc = Some(PfcConfig {
            xoff: 200_000, // never reached
            xon: 100_000,
        });
        let mut sw = Sw::new(cfg, 0);
        let mut drops = 0;
        for _ in 0..200 {
            let out = sw.enqueue(red(952), PortId(0), PortId(1), SimTime::ZERO);
            if let Some(r) = out.drop {
                assert_eq!(r, DropReason::BufferOverflow);
                drops += 1;
            }
        }
        assert!(drops > 0, "pool exhaustion still drops");
        assert!(sw.total_bytes() <= 100_000);
    }

    #[test]
    fn color_threshold_applies_even_with_pfc() {
        // TLT + PFC: red packets are still proactively dropped at K, which
        // is what keeps queues short and PFC quiet (§7.1).
        let mut cfg = small_cfg();
        cfg.pfc = Some(PfcConfig {
            xoff: 50_000,
            xon: 40_000,
        });
        cfg.color_threshold = Some(2_000);
        let mut sw = Sw::new(cfg, 0);
        assert!(
            sw.enqueue(red(1000), PortId(0), PortId(1), SimTime::ZERO)
                .enqueued
        );
        let out = sw.enqueue(red(1000), PortId(0), PortId(1), SimTime::ZERO);
        assert!(!out.enqueued);
        assert_eq!(out.drop, Some(DropReason::ColorThreshold));
        assert!(
            sw.enqueue(green(1000), PortId(0), PortId(1), SimTime::ZERO)
                .enqueued
        );
    }

    #[test]
    fn int_hops_appended_at_dequeue() {
        let mut cfg = small_cfg();
        cfg.int_enabled = true;
        let mut sw = Sw::new(cfg, 0);
        let mut p = Packet::data(FlowId(0), 0, 1000);
        p.colorize(false);
        sw.enqueue(p, PortId(0), PortId(1), SimTime::ZERO);
        let (pkt, _) = sw.dequeue(PortId(1), SimTime::from_us(3));
        let pkt = pkt.unwrap();
        assert_eq!(pkt.int_stack.len(), 1);
        let hop = pkt.int_stack[0];
        assert_eq!(hop.q_len, 0);
        assert_eq!(hop.tx_bytes, 1048);
        assert_eq!(hop.ts, SimTime::from_us(3));
        assert_eq!(hop.rate_bps, 40_000_000_000);

        // A slower egress reports its own capacity, not the default.
        sw.set_port_rate(PortId(0), 10_000_000_000);
        for egress in [PortId(0), PortId(1)] {
            let mut p = Packet::data(FlowId(0), 0, 1000);
            p.colorize(false);
            sw.enqueue(p, PortId(1), egress, SimTime::ZERO);
        }
        let rate = |sw: &mut Sw, egress| {
            let (pkt, _) = sw.dequeue(egress, SimTime::from_us(4));
            pkt.unwrap().int_stack[0].rate_bps
        };
        assert_eq!(rate(&mut sw, PortId(0)), 10_000_000_000);
        assert_eq!(rate(&mut sw, PortId(1)), 40_000_000_000);
    }

    #[test]
    fn int_not_appended_to_control() {
        let mut cfg = small_cfg();
        cfg.int_enabled = true;
        let mut sw = Sw::new(cfg, 0);
        sw.enqueue(
            Packet::ack(FlowId(0), 5),
            PortId(0),
            PortId(1),
            SimTime::ZERO,
        );
        let (pkt, _) = sw.dequeue(PortId(1), SimTime::ZERO);
        assert!(pkt.unwrap().int_stack.is_empty());
    }

    /// A queued frame names its ingress port in a `u16`, so a switch with
    /// more ports is refused at construction.
    #[test]
    #[should_panic(expected = "at most 65535 ports")]
    fn new_refuses_more_ports_than_a_frame_can_name() {
        let _ = Switch::new(SwitchConfig::trident2(usize::from(u16::MAX) + 1), 1);
    }

    #[test]
    fn dequeue_empty_returns_none() {
        let mut sw = Sw::new(small_cfg(), 0);
        let (p, s) = sw.dequeue(PortId(0), SimTime::ZERO);
        assert!(p.is_none());
        assert!(s.is_none());
    }

    #[test]
    fn stats_track_maxima() {
        let mut sw = Sw::new(small_cfg(), 0);
        for _ in 0..3 {
            sw.enqueue(red(1000), PortId(0), PortId(1), SimTime::ZERO);
        }
        assert_eq!(sw.stats().max_queue_bytes, 3 * 1048);
        assert_eq!(sw.stats().max_total_bytes, 3 * 1048);
        while sw.has_packets(PortId(1)) {
            sw.dequeue(PortId(1), SimTime::ZERO);
        }
        assert_eq!(sw.stats().max_queue_bytes, 3 * 1048, "maxima are sticky");
    }

    /// Every dropped packet increments exactly one of the three reason
    /// counters, and green data arrivals are conserved: each offered green
    /// data packet lands in `green_data_pkts` or `drops_green_data`, never
    /// both or neither (seeded random interleavings, so failures reproduce).
    #[test]
    fn prop_drop_accounting_invariants() {
        let mut rng = eventsim::SimRng::seed_from(0xD20_ACC7);
        for case in 0..64 {
            let mut cfg = small_cfg();
            cfg.color_threshold = Some(10_000);
            if case % 3 == 0 {
                cfg.pfc = Some(PfcConfig {
                    xoff: 30_000,
                    xon: 20_000,
                });
            }
            let mut sw = Sw::new(cfg, 11);
            let mut offered = 0u64;
            let mut offered_green_data = 0u64;
            let ops = rng.gen_range_usize(50..400);
            for _ in 0..ops {
                let port = rng.gen_range_u64(0..2) as u32;
                if rng.gen_bool(0.7) {
                    let len = rng.gen_range_u64(200..1400) as u32;
                    let mut p = Packet::data(FlowId(0), 0, len);
                    if rng.gen_bool(0.3) {
                        p.mark = TltMark::ImportantData;
                    }
                    p.colorize(true);
                    offered += 1;
                    if p.color == Color::Green {
                        offered_green_data += 1;
                    }
                    let before = *sw.stats();
                    let out = sw.enqueue(p, PortId(1 - port), PortId(port), SimTime::ZERO);
                    let after = *sw.stats();
                    let delta_drops = (after.drops_color - before.drops_color)
                        + (after.drops_dt - before.drops_dt)
                        + (after.drops_overflow - before.drops_overflow);
                    if out.enqueued {
                        assert_eq!(out.drop, None, "case {case}");
                        assert_eq!(
                            delta_drops, 0,
                            "case {case}: admitted packet counted as drop"
                        );
                    } else {
                        assert!(out.drop.is_some(), "case {case}");
                        assert_eq!(
                            delta_drops, 1,
                            "case {case}: drop must hit exactly one reason counter"
                        );
                    }
                } else {
                    sw.dequeue(PortId(port), SimTime::ZERO);
                }
            }
            let s = sw.stats();
            assert_eq!(
                s.enq_pkts + s.drops_color + s.drops_dt + s.drops_overflow,
                offered,
                "case {case}: every offered packet was admitted or dropped once"
            );
            assert_eq!(
                s.green_data_pkts + s.drops_green_data,
                offered_green_data,
                "case {case}: green data arrivals conserved"
            );
        }
    }

    /// The conservation audit runs green across a mixed workload, and a
    /// deliberately corrupted ledger makes it fire — proving the auditor
    /// itself is alive, not vacuously passing.
    #[test]
    #[cfg(debug_assertions)]
    fn strict_audit_passes_on_honest_ledger() {
        let mut cfg = small_cfg();
        cfg.color_threshold = Some(10_000);
        cfg.pfc = Some(PfcConfig {
            xoff: 20_000,
            xon: 10_000,
        });
        let mut sw = Sw::new(cfg, 3);
        let mut rng = eventsim::SimRng::seed_from(0x57121C7);
        for _ in 0..300 {
            let port = rng.gen_range_u64(0..2) as u32;
            if rng.gen_bool(0.6) {
                let mut p = Packet::data(FlowId(0), 0, rng.gen_range_u64(200..1400) as u32);
                p.colorize(true);
                sw.enqueue(p, PortId(1 - port), PortId(port), SimTime::ZERO);
            } else {
                sw.dequeue(PortId(port), SimTime::ZERO);
            }
        }
        sw.audit_conservation(); // explicit drain-time audit
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "MMU ledger")]
    fn strict_audit_fires_on_corrupted_ledger() {
        let mut sw = Sw::new(small_cfg(), 0);
        assert!(
            sw.enqueue(red(1000), PortId(0), PortId(1), SimTime::ZERO)
                .enqueued
        );
        sw.corrupt_ledger_for_test();
        let _ = sw.enqueue(red(1000), PortId(0), PortId(1), SimTime::ZERO);
    }

    /// Trace events agree with the switch's own counters: the counting sink
    /// sees the same per-reason drop, CE-mark, and PFC totals the stats
    /// report, attributed to the configured node id.
    #[test]
    fn trace_events_match_switch_stats() {
        use telemetry::CountingSink;

        let mut cfg = small_cfg();
        cfg.color_threshold = Some(5_000);
        cfg.ecn = EcnConfig::Threshold { k: 2_000 };
        cfg.pfc = Some(PfcConfig {
            xoff: 8_000,
            xon: 4_000,
        });
        let mut sw = Sw::new(cfg, 0);
        let (tracer, counts) = Tracer::new(CountingSink::default());
        sw.set_tracer(tracer, 7);
        let mut rng = eventsim::SimRng::seed_from(0x7AC3);
        for _ in 0..400 {
            let port = rng.gen_range_u64(0..2) as u32;
            if rng.gen_bool(0.8) {
                let len = rng.gen_range_u64(200..1400) as u32;
                let mut p = Packet::data(FlowId(0), 0, len);
                if rng.gen_bool(0.3) {
                    p.mark = TltMark::ImportantData;
                }
                p.ecn_capable = true;
                p.colorize(true);
                sw.enqueue(p, PortId(1 - port), PortId(port), SimTime::ZERO);
            } else {
                sw.dequeue(PortId(port), SimTime::ZERO);
            }
        }
        let s = *sw.stats();
        let c = counts.borrow();
        assert!(s.drops_color > 0 && s.ce_marked > 0, "exercise the paths");
        assert_eq!(c.totals.drops_color, s.drops_color);
        assert_eq!(c.totals.drops_dt, s.drops_dt);
        assert_eq!(c.totals.drops_overflow, s.drops_overflow);
        assert_eq!(c.totals.drops_green, s.drops_green_data);
        assert_eq!(c.totals.ce_marked, s.ce_marked);
        assert_eq!(c.totals.pauses, s.pauses_sent);
        assert_eq!(c.totals.resumes, s.resumes_sent);
        assert_eq!(c.totals.enqueues, s.enq_pkts);
        assert_eq!(
            c.per_node()[&7].drops_color,
            s.drops_color,
            "node id attributed"
        );
    }

    /// Buffer accounting is conserved under randomly generated
    /// enqueue/dequeue interleavings: occupancy equals the sum of queue
    /// depths, never exceeds the pool, and drains to zero (seeded, so
    /// failures reproduce).
    #[test]
    fn prop_buffer_conservation() {
        let mut rng = eventsim::SimRng::seed_from(0xB0FF);
        for case in 0..64 {
            let mut cfg = small_cfg();
            cfg.color_threshold = Some(20_000);
            let mut sw = Sw::new(cfg, 7);
            let ops = rng.gen_range_usize(1..300);
            for _ in 0..ops {
                let port = rng.gen_range_u64(0..2) as u32;
                if rng.gen_bool(0.5) {
                    let len = rng.gen_range_u64(200..1400) as u32;
                    let mut p = Packet::data(FlowId(0), 0, len);
                    if len.is_multiple_of(3) {
                        p.mark = TltMark::ImportantData;
                    }
                    p.colorize(true);
                    sw.enqueue(p, PortId(1 - port), PortId(port), SimTime::ZERO);
                } else {
                    sw.dequeue(PortId(port), SimTime::ZERO);
                }
                let sum: u64 = (0..2).map(|q| sw.queue_bytes(PortId(q))).sum();
                assert_eq!(sum, sw.total_bytes(), "case {case}");
                assert!(sw.total_bytes() <= 100_000, "case {case}");
            }
            for port in 0..2u32 {
                while sw.has_packets(PortId(port)) {
                    sw.dequeue(PortId(port), SimTime::ZERO);
                }
            }
            assert_eq!(sw.total_bytes(), 0, "case {case}");
        }
    }
}
