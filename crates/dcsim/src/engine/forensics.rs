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

/// How far back RTO attribution looks: a flow's last `LOSS_RING` losses.
/// Bounds what attribution can blame on the recent past; a [`LossSummary`]
/// answers exactly what a ring of this many [`LossEvent`]s would.
const LOSS_RING: u32 = 64;

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

impl LossEvent {
    /// A forward data frame died: the loss names its drop directly. Any
    /// other loss (reverse or control) starved the ACK clock.
    fn is_data(&self) -> bool {
        self.dir == Direction::Fwd && !self.control
    }
}

/// What a loss tells attribution: the cause, node, port and time of an
/// RTO's root-cause event.
type Evidence = (RtoCause, u32, u32, SimTime);

/// One loss as a [`LossSummary`] keeps it: where, when and why, and its
/// 1-based ordinal among the flow's losses.
#[derive(Clone, Copy)]
struct Kept {
    at: SimTime,
    node: u32,
    port: u32,
    ordinal: u32,
    why: DropWhy,
}

/// Everything RTO attribution reads of a flow's losses, in place of the
/// last [`LOSS_RING`] [`LossEvent`]s: the loss count, and the newest
/// forward-data loss and the newest other loss, both of the newest epoch
/// that lost a frame and of any epoch. Attribution asks the ring three
/// things — the newest data-else-other loss of the current epoch, the same
/// over every epoch, and whether anything was lost at all — and each
/// answer is one of these entries, provided it is still among the last
/// [`LOSS_RING`] losses (`count − ordinal < LOSS_RING`): an older entry
/// of the same kind is older still. Epochs only grow (a frame is stamped
/// with its flow's epoch when sent, and the epoch advances at each RTO),
/// so a loss of a newer epoch retires the older epoch's entries, which no
/// later query can ask for. Ordinals wrap at 2^32; a wrapped difference
/// is exact while fewer than 2^32 losses separate an entry from the
/// newest.
#[derive(Default)]
pub(super) struct LossSummary {
    count: u32,
    epoch: u32,
    epoch_data: Option<Kept>,
    epoch_other: Option<Kept>,
    any_data: Option<Kept>,
    any_other: Option<Kept>,
}

impl LossSummary {
    /// Records the flow's next loss.
    fn note(&mut self, ev: &LossEvent) {
        self.count = self.count.wrapping_add(1);
        let kept = Some(Kept {
            at: ev.at,
            node: ev.node,
            port: ev.port,
            ordinal: self.count,
            why: ev.why,
        });
        if ev.epoch > self.epoch {
            self.epoch = ev.epoch;
            (self.epoch_data, self.epoch_other) = (None, None);
        }
        let (this_epoch, any) = if ev.is_data() {
            (&mut self.epoch_data, &mut self.any_data)
        } else {
            (&mut self.epoch_other, &mut self.any_other)
        };
        if ev.epoch == self.epoch {
            *this_epoch = kept;
        }
        *any = kept;
    }

    /// The newest forward-data loss of `epoch` (of any epoch when `None`)
    /// among the flow's last [`LOSS_RING`], else the newest other loss: a
    /// lost ACK only matters when no data frame died.
    fn newest(&self, epoch: Option<u32>) -> Option<Evidence> {
        let (data, other) = match epoch {
            None => (self.any_data, self.any_other),
            Some(e) if e == self.epoch => (self.epoch_data, self.epoch_other),
            // A later epoch than any loss: nothing of it died. (Attribution
            // asks for the current epoch, and no loss is of a later one.)
            Some(e) => {
                debug_assert!(e > self.epoch, "epoch {e} asked after {}", self.epoch);
                (None, None)
            }
        };
        let recent = |k: &Kept| self.count.wrapping_sub(k.ordinal) < LOSS_RING;
        let answer = |k: Kept, cause| (cause, k.node, k.port, k.at);
        data.filter(recent)
            .map(|k| answer(k, RtoCause::from_drop(k.why)))
            .or_else(|| other.filter(recent).map(|k| answer(k, RtoCause::AckLoss)))
    }
}

// One 104-byte block per lossy flow, where the ring grew to 64 × 24 B.
const _: () = assert!(std::mem::size_of::<LossSummary>() == 104);

/// The reference [`LossSummary`] replaced, kept for
/// `loss_summary_matches_the_ring`: each flow's last [`LOSS_RING`] losses
/// in full, and a tally of which evidence answered each RTO.
#[cfg(test)]
#[derive(Default)]
pub(super) struct LossRings {
    rings: Option<Vec<std::collections::VecDeque<LossEvent>>>,
    answered: [u64; Answer::COUNT],
}

/// Which evidence answered an RTO (the tally of [`LossRings`]).
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
enum Answer {
    EpochData,
    EpochOther,
    Pfc,
    Stale,
    Delay,
    Unknown,
}

#[cfg(test)]
impl Answer {
    const COUNT: usize = 6;
}

/// [`LossSummary::newest`] as the ring computed it: a backwards scan.
#[cfg(test)]
fn ring_newest(
    ring: &std::collections::VecDeque<LossEvent>,
    epoch: Option<u32>,
) -> Option<Evidence> {
    let pick = |data_only: bool| {
        ring.iter()
            .rev()
            .filter(|l| epoch.is_none_or(|e| l.epoch == e))
            .find(|l| !data_only || l.is_data())
            .map(|l| {
                let cause = if l.is_data() {
                    RtoCause::from_drop(l.why)
                } else {
                    RtoCause::AckLoss
                };
                (cause, l.node, l.port, l.at)
            })
    };
    pick(true).or_else(|| pick(false))
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
    /// Records a loss in flow `f`'s summary, allocated at its first loss.
    /// A folded flow has none and records nothing: only a live RTO reads
    /// it.
    pub(super) fn note_loss(&mut self, f: u32, ev: LossEvent) {
        let Some(run) = self.flows[f as usize].run.as_deref_mut() else {
            return;
        };
        run.losses.get_or_insert_default().note(&ev);
        #[cfg(test)]
        if let Some(rings) = self.loss_rings.rings.as_mut() {
            let ring = &mut rings[f as usize];
            if ring.len() == LOSS_RING as usize {
                ring.pop_front();
            }
            ring.push_back(ev);
        }
    }

    /// Keeps every flow's last [`LOSS_RING`] losses in full and attributes
    /// from them instead of the summaries: the reference side of
    /// `loss_summary_matches_the_ring`.
    #[cfg(test)]
    fn keep_loss_rings(&mut self) {
        self.loss_rings.rings = Some(vec![Default::default(); self.flows.len()]);
    }

    /// Attributes the RTO that flow `f`'s sender just registered at `t`.
    ///
    /// The evidence is examined in causal-precedence order: a loss of this
    /// flow's packets in the current transmit epoch (forward data losses
    /// name the drop directly, reverse/control losses starved the ACK
    /// clock), then a PFC pause overlapping the armed window on any hop of
    /// the flow's paths, then any stale-epoch loss (a retransmission round
    /// that was itself lost); the losses looked at are the flow's last
    /// [`LOSS_RING`], as its [`LossSummary`] answers for them. A
    /// connection with no summary — nothing of it was ever dropped — took a spurious, delay-induced
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
        let from_ring = |want_epoch: Option<u32>| {
            #[cfg(test)]
            if let Some(rings) = &self.loss_rings.rings {
                return ring_newest(&rings[f as usize], want_epoch);
            }
            run.losses.as_deref().and_then(|s| s.newest(want_epoch))
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
        if hit.is_none() && run.losses.is_none() {
            // Not a single frame of this connection ever died: the
            // outstanding data (or its ACK) is still queued in the network
            // and the timeout is spurious — queueing delay outgrew the
            // computed RTO (the paper's Figure 1 regime).
            hit = Some((RtoCause::Delay, 0, 0, armed));
        }
        let (cause, node, port, root_at) = hit.unwrap_or((RtoCause::Unknown, 0, 0, SimTime::ZERO));
        #[cfg(test)]
        {
            let answer = match cause {
                RtoCause::PfcStall => Answer::Pfc,
                RtoCause::Delay => Answer::Delay,
                RtoCause::Unknown => Answer::Unknown,
                _ if from_ring(Some(epoch)).is_none() => Answer::Stale,
                RtoCause::AckLoss => Answer::EpochOther,
                _ => Answer::EpochData,
            };
            self.loss_rings.answered[answer as usize] += 1;
        }
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
    use crate::engine::drawn::{assert_same_run, fabric_cell};
    use eventsim::SimRng;
    use std::collections::VecDeque;

    fn loss(epoch: u32, data: bool, node: u32) -> LossEvent {
        LossEvent {
            at: SimTime::from_ns(u64::from(node)),
            node,
            port: 1,
            why: DropWhy::Dynamic,
            dir: if data { Direction::Fwd } else { Direction::Rev },
            control: !data,
            epoch,
        }
    }

    /// A summary and the ring it replaced, fed the same losses.
    #[derive(Default)]
    struct Both {
        summary: LossSummary,
        ring: VecDeque<LossEvent>,
    }

    impl Both {
        fn note(&mut self, ev: LossEvent) {
            self.summary.note(&ev);
            if self.ring.len() == LOSS_RING as usize {
                self.ring.pop_front();
            }
            self.ring.push_back(ev);
        }

        /// Both answers to `epoch`, asserted equal.
        fn newest(&self, epoch: Option<u32>) -> Option<Evidence> {
            let answer = self.summary.newest(epoch);
            assert_eq!(answer, ring_newest(&self.ring, epoch), "epoch {epoch:?}");
            answer
        }
    }

    /// The window's edge: a data loss stays the answer while 63 newer ACK
    /// losses of its epoch follow it, and drops out of the last 64 at the
    /// 64th, where the ring forgot it too.
    #[test]
    fn a_data_loss_answers_until_64_newer_losses_push_it_out() {
        let mut both = Both::default();
        both.note(loss(3, true, 7));
        for n in 1..=64 {
            both.note(loss(3, false, 100 + n));
            let want = if n < 64 {
                (RtoCause::Dynamic, 7, 1, SimTime::from_ns(7))
            } else {
                let at = 100 + n;
                (RtoCause::AckLoss, at, 1, SimTime::from_ns(u64::from(at)))
            };
            assert_eq!(both.newest(Some(3)), Some(want), "after {n} ACK losses");
            assert_eq!(both.newest(None), Some(want), "after {n} ACK losses");
        }
        assert_eq!(both.newest(Some(4)), None);
    }

    /// After an RTO bumps the epoch to 2, a frame of epoch 1 still in
    /// flight dies: it is the newest loss of any epoch, not of epoch 2, and
    /// epoch 2's own loss keeps answering for its epoch.
    #[test]
    fn a_stale_epoch_frame_lost_after_the_rto_answers_only_for_any_epoch() {
        let mut both = Both::default();
        both.note(loss(1, true, 10));
        assert_eq!(both.newest(Some(2)), None, "nothing of epoch 2 died yet");
        both.note(loss(1, true, 11));
        assert_eq!(both.newest(Some(2)), None);
        assert_eq!(both.newest(None).map(|e| e.1), Some(11));
        both.note(loss(2, false, 12));
        both.note(loss(1, true, 13));
        assert_eq!(
            both.newest(Some(2)).map(|e| (e.0, e.1)),
            Some((RtoCause::AckLoss, 12))
        );
        assert_eq!(
            both.newest(None).map(|e| (e.0, e.1)),
            Some((RtoCause::Dynamic, 13))
        );
        // Stale losses push epoch 2's entry out of the window like any
        // other loss: 63 newer losses keep it, the 64th does not.
        for n in 0..62 {
            both.note(loss(1, false, 200 + n));
            assert_eq!(both.newest(Some(2)).map(|e| e.1), Some(12));
        }
        both.note(loss(1, false, 300));
        assert_eq!(both.newest(Some(2)), None);
        assert_eq!(both.newest(None).map(|e| e.1), Some(13));
    }

    /// A no-TLT TCP incast of drawn short flows from 16 senders into one
    /// host behind a drawn small buffer: hundreds of RTOs, many of them
    /// repeated on one flow, so later epochs and stale-epoch losses occur.
    fn rto_incast(rng: &mut SimRng) -> (SimConfig, Vec<FlowSpec>) {
        let mut cfg = SimConfig::tcp_family(TransportKind::Tcp)
            .with_topology(small_single_switch(17))
            .with_seed(rng.gen_u64());
        cfg.switch.buffer_bytes = rng.gen_range_u64(60_000..200_000);
        let per = rng.gen_range_usize(2..5);
        let flows = (1..17)
            .flat_map(|s| (0..per).map(move |i| (s, i)))
            .map(|(s, i)| {
                let bytes = 8_000 + rng.gen_range_u64(0..40_000);
                FlowSpec::new(s, 0, bytes, SimTime::from_us(i as u64), true)
            })
            .collect();
        (cfg, flows)
    }

    /// A TCP incast under PFC with a drawn fixed RTO of tens of
    /// microseconds: nothing is dropped, so every RTO is spurious, blamed
    /// on a pause that overlapped its window or, where none did, on delay.
    fn spurious_pfc_incast(rng: &mut SimRng) -> (SimConfig, Vec<FlowSpec>) {
        let mut cfg = SimConfig::tcp_family(TransportKind::Tcp)
            .with_topology(small_single_switch(9))
            .with_pfc()
            .with_seed(rng.gen_u64());
        cfg.rto = transport::RtoMode::Fixed(SimTime::from_us(rng.gen_range_u64(20..80)));
        cfg.switch.buffer_bytes = rng.gen_range_u64(200_000..600_000);
        let flows = (1..9)
            .flat_map(|s| [0, 3].map(|us| (s, us)))
            .map(|(s, us)| {
                let bytes = 20_000 + rng.gen_range_u64(0..80_000);
                FlowSpec::new(s, 0, bytes, SimTime::from_us(us), true)
            })
            .collect();
        (cfg, flows)
    }

    /// One run of a cell, attributing from the summaries or (`rings`) from
    /// the full rings, with the tally of which evidence answered each RTO.
    fn run(cfg: &SimConfig, flows: &[FlowSpec], rings: bool) -> (SimResult, [u64; Answer::COUNT]) {
        let mut eng = Engine::new(cfg.clone(), flows.to_vec());
        if rings {
            eng.keep_loss_rings();
        }
        let samples = eng.run_events();
        let answered = eng.loss_rings.answered;
        (eng.collect(samples), answered)
    }

    /// Summary ≡ ring. The same drawn cell attributes its RTOs from each
    /// flow's loss summary and from the last 64 losses kept in full (the
    /// engine before the summary): every flow record, every forensic
    /// record and the whole aggregate, samples included, must agree. The
    /// cells are `engine/drawn.rs`'s four, a no-TLT incast and a spurious-
    /// RTO PFC incast; together they must exercise every answer
    /// attribution can give. A few cells
    /// under `debug_assertions`, a few hundred in a release test run (CI).
    #[test]
    fn loss_summary_matches_the_ring() {
        let cases = if cfg!(debug_assertions) { 8 } else { 400 };
        let mut rng = SimRng::seed_from(0x1055_0064);
        let mut answered = [0; Answer::COUNT];
        for case in 0..cases {
            let (cfg, flows) = match case % 6 {
                4 => rto_incast(&mut rng),
                5 => spurious_pfc_incast(&mut rng),
                kind => fabric_cell(kind, &mut rng),
            };
            let (summary, tally) = run(&cfg, &flows, false);
            let (ring, ring_tally) = run(&cfg, &flows, true);
            let label = format!("case {case} (kind {})", case % 6);
            assert_same_run(&label, &summary, &ring);
            assert_eq!(tally, ring_tally, "{label}: answers");
            assert_eq!(summary.forensics.len() as u64, summary.agg.timeouts);
            for (sum, n) in answered.iter_mut().zip(tally) {
                *sum += n;
            }
        }
        println!("answers: {answered:?}");
        for answer in [
            Answer::EpochData,
            Answer::EpochOther,
            Answer::Pfc,
            Answer::Stale,
            Answer::Delay,
        ] {
            assert!(
                answered[answer as usize] > 0,
                "no RTO was answered by {answer:?}: {answered:?}"
            );
        }
    }

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
