//! RTO forensics: per-flow loss provenance, the PFC pause log, and the
//! attribution pass that names each timeout's root cause.

use super::*;

/// One retransmission timeout with its attributed root cause.
///
/// Built by the engine's forensics pass the instant an RTO fires: the
/// flow's recent loss history and the PFC pause timeline are walked
/// backwards to find the event that explains the expiry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RtoForensicRec {
    /// When the RTO fired.
    pub at: SimTime,
    /// The flow that timed out.
    pub flow: u32,
    /// Oldest unacknowledged byte at expiry.
    pub seq: u64,
    /// Attributed root cause.
    pub cause: RtoCause,
    /// Node where the root-cause event happened (0 when unknown).
    pub node: u32,
    /// Port of the root-cause event.
    pub port: u32,
    /// When the root-cause event happened ([`SimTime::ZERO`] when unknown).
    pub root_at: SimTime,
}

/// Per-flow ring capacity for [`LossEvent`] provenance records. Bounds the
/// forensic memory per flow; RTO attribution only needs the recent past.
const LOSS_RING: usize = 64;

/// Engine-wide ring capacity for completed PFC pause episodes.
pub(super) const PAUSE_LOG: usize = 128;

/// One frame loss, remembered for RTO attribution.
#[derive(Clone, Copy)]
pub(super) struct LossEvent {
    pub(super) at: SimTime,
    pub(super) node: u32,
    pub(super) port: u32,
    pub(super) why: DropWhy,
    pub(super) dir: Direction,
    pub(super) control: bool,
    pub(super) epoch: u32,
}

/// One completed PFC pause episode on an egress port.
#[derive(Clone, Copy)]
pub(super) struct PauseEpisode {
    pub(super) node: u32,
    pub(super) port: u32,
    pub(super) start: SimTime,
    pub(super) end: SimTime,
}

impl Engine {
    /// Appends a loss to flow `f`'s bounded forensic ring. A folded flow has
    /// none and records nothing: only a live RTO reads the ring.
    pub(super) fn note_loss(&mut self, f: u32, ev: LossEvent) {
        let Some(run) = self.flows[f as usize].run.as_deref_mut() else {
            return;
        };
        if run.losses.len() == LOSS_RING {
            run.losses.pop_front();
        }
        run.losses.push_back(ev);
    }

    /// Attributes the RTO that flow `f`'s sender just registered at `t`.
    ///
    /// The evidence is examined in causal-precedence order: a loss of this
    /// flow's packets in the current transmit epoch (forward data losses
    /// name the drop directly, reverse/control losses starved the ACK
    /// clock), then a PFC pause overlapping the armed window on any hop of
    /// the flow's paths, then any stale-epoch loss (a retransmission round
    /// that was itself lost). A connection whose loss ring is *empty* —
    /// nothing of it was ever dropped — took a spurious, delay-induced
    /// timeout (`Delay`). Anything else is `Unknown`.
    pub(super) fn attribute_rto(&mut self, f: u32, t: SimTime) {
        // The latency ledger rides the same forensic hook: the quiet window
        // that led up to this firing *was* the RTO stall, and everything
        // after is RTO recovery until a fresh-epoch data packet lands.
        if self.flows[f as usize].complete_at.is_none() {
            self.flows[f as usize].lg.on_rto(t.as_ns());
        }
        let rt = &self.flows[f as usize];
        let run = rt.run.as_deref().expect("an RTO fires on a running flow");
        let epoch = rt.tx_epoch;
        let armed = run.rto_armed_at;
        let classify = |l: &LossEvent| {
            if l.dir == Direction::Fwd && !l.control {
                RtoCause::from_drop(l.why)
            } else {
                RtoCause::AckLoss
            }
        };
        let from_ring = |want_epoch: Option<u32>| {
            // Forward data losses outrank reverse/control ones: a lost ACK
            // only matters when no data frame of the epoch died.
            let pick = |data_only: bool| {
                run.losses
                    .iter()
                    .rev()
                    .filter(|l| want_epoch.is_none_or(|e| l.epoch == e))
                    .find(|l| !data_only || (l.dir == Direction::Fwd && !l.control))
                    .map(|l| (classify(l), l.node, l.port, l.at))
            };
            pick(true).or_else(|| pick(false))
        };
        let mut hit = from_ring(Some(epoch));
        if hit.is_none() {
            // Nothing was dropped this epoch: a PFC stall on the path can
            // hold ACKs (or data) past the timer without losing a frame.
            let (fwd, rev) = self.paths(f);
            'pfc: for path in [fwd, rev] {
                for hop in path.iter() {
                    let (hn, hp) = (hop.node.0, hop.port.0);
                    let i = self.port_index(hop.node, hop.port);
                    // A paused port has its accounting entry.
                    if self.ports[i].paused && self.pause_acct[i].paused_since <= t {
                        let since = self.pause_acct[i].paused_since;
                        hit = Some((RtoCause::PfcStall, hn, hp, since));
                        break 'pfc;
                    }
                    for ep in self.pause_log.iter().rev() {
                        if ep.node == hn && ep.port == hp && ep.end >= armed && ep.start <= t {
                            hit = Some((RtoCause::PfcStall, hn, hp, ep.start));
                            break 'pfc;
                        }
                    }
                }
            }
        }
        if hit.is_none() {
            hit = from_ring(None);
        }
        if hit.is_none() && run.losses.is_empty() {
            // Not a single frame of this connection ever died: the
            // outstanding data (or its ACK) is still queued in the network
            // and the timeout is spurious — queueing delay outgrew the
            // computed RTO (the paper's Figure 1 regime).
            hit = Some((RtoCause::Delay, 0, 0, armed));
        }
        let (cause, node, port, root_at) = hit.unwrap_or((RtoCause::Unknown, 0, 0, SimTime::ZERO));
        let seq = self.sender_stats(f).last_rto_seq;
        self.flows[f as usize].tx_epoch += 1;
        self.rto_causes.bump(cause);
        self.tracer.emit(t, || TraceEvent::RtoForensic {
            flow: f,
            seq,
            cause,
            node,
            port,
            root_at,
        });
        self.forensics.push(RtoForensicRec {
            at: t,
            flow: f,
            seq,
            cause,
            node,
            port,
            root_at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::small_single_switch;

    #[test]
    fn golden_incast_rtos_attribute_to_bottleneck_congestion_drops() {
        // The same scripted incast as above, viewed through RTO forensics:
        // every timeout the baseline suffers must carry a root cause naming
        // an uncolored congestion drop at the bottleneck switch's egress
        // toward the sink, and TLT — which eliminates the timeouts — must
        // leave the forensic log empty.
        let mk = |tlt: bool| {
            let mut cfg =
                SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(49));
            cfg.switch.buffer_bytes = 800_000;
            cfg.switch.ecn = netsim::switch::EcnConfig::Threshold { k: 100_000 };
            if tlt {
                cfg = cfg.with_tlt();
                cfg.switch.color_threshold = Some(150_000);
            }
            let flows: Vec<FlowSpec> = (1..49)
                .flat_map(|s| {
                    [
                        FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true),
                        FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true),
                    ]
                })
                .collect();
            Engine::new(cfg, flows).run()
        };
        let base = mk(false);
        assert!(base.agg.timeouts > 0, "baseline incast must time out");
        assert_eq!(
            base.forensics.len() as u64,
            base.agg.timeouts,
            "exactly one forensic record per RTO"
        );
        assert_eq!(base.agg.rto_causes.total(), base.agg.timeouts);
        assert_eq!(
            base.agg.rto_causes.get(RtoCause::Unknown),
            0,
            "every RTO in the scripted scenario has a known root cause"
        );
        for r in &base.forensics {
            assert!(
                matches!(r.cause, RtoCause::Dynamic | RtoCause::Overflow),
                "congestion drop expected, got {:?}",
                r.cause
            );
            assert_eq!(r.node, 0, "root cause sits at the bottleneck switch");
            assert_eq!(r.port, 0, "on the egress toward the incast sink");
            assert!(r.root_at <= r.at, "the cause precedes the timeout");
        }

        let tlt = mk(true);
        assert_eq!(tlt.agg.timeouts, 0, "TLT eliminates the timeouts");
        assert!(tlt.forensics.is_empty(), "no RTO, no forensics");
        assert_eq!(tlt.agg.rto_causes.total(), 0);
    }

    #[test]
    fn golden_severed_flow_rtos_attribute_to_link_down() {
        // A flow whose only path is cut keeps RTO-probing until max_time;
        // forensics must blame the dead wire, never congestion.
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(4));
        cfg.max_time = SimTime::from_ms(50);
        cfg.faults = faults::FaultSchedule::new().link_down(SimTime::from_us(50), 3, 0);
        let flows = vec![
            FlowSpec::new(1, 0, 64_000, SimTime::ZERO, true),
            FlowSpec::new(2, 0, 64_000, SimTime::ZERO, true),
            FlowSpec::new(3, 0, 64_000, SimTime::ZERO, true),
        ];
        let res = Engine::new(cfg, flows).run();
        assert!(res.agg.timeouts > 0, "the victim kept RTO-probing");
        assert_eq!(res.forensics.len() as u64, res.agg.timeouts);
        assert_eq!(res.agg.rto_causes.total(), res.agg.timeouts);
        let victim: Vec<_> = res.forensics.iter().filter(|r| r.flow == 1).collect();
        assert!(!victim.is_empty(), "severed flow produced forensics");
        for r in victim {
            assert_eq!(
                r.cause,
                RtoCause::LinkDown,
                "severed flow blames the wire, got {:?}",
                r.cause
            );
        }
    }
}
