//! The wire path: the port table's records, the lazy-`TxDone` port state
//! machine, switch enqueue/dequeue, PFC, and the one path a frame is lost on.

use super::*;
use std::ops::ControlFlow;

/// One egress port's hot record: everything `kick_port`, `deliver` and
/// `send_pfc` need for a packet hop, in one cache line (DESIGN §12 "Port
/// table"). The engine keeps them in one flat table indexed by
/// `port_base[node] + port`.
#[derive(Clone, Copy)]
pub(super) struct Port {
    /// A frame was handed to the wire and its `TxDone` has not executed.
    /// With `tx_done_queued` clear that `TxDone` is *virtual* (DESIGN §12
    /// "Lazy TxDone"): `busy` then only means "busy until `(free_at,
    /// free_seq)`", and `kick_port` is where it is resolved.
    pub(super) busy: bool,
    pub(super) paused: bool,
    /// Whether that `TxDone` is actually in the event queue.
    pub(super) tx_done_queued: bool,
    /// When the frame being serialized leaves the port, and the tie-break
    /// seq reserved for the `TxDone` of that instant.
    pub(super) free_at: SimTime,
    pub(super) free_seq: u64,
    /// The wire this port transmits on, copied from [`Topology`] at
    /// construction: the directed link, the `(node, port)` at its far end,
    /// its rate and delay. Links never change after the build (faults live
    /// in [`FaultState`], keyed by `lid`), so the copy cannot go stale.
    pub(super) lid: LinkId,
    pub(super) peer: (NodeId, PortId),
    pub(super) spec: LinkSpec,
    /// One-entry serialization-time memo: `memo_tx` is the transmit time of
    /// a `memo_wire`-byte frame on this link. Zero bytes means empty (every
    /// frame carries a header).
    pub(super) memo_wire: u32,
    pub(super) memo_tx: SimTime,
}

impl Port {
    /// The directed link *arriving* at this port: `connect` allocates the
    /// two directions of a cable as an even/odd pair, so it is the egress
    /// link with the low bit flipped (`Topology::reverse_link`).
    #[inline]
    pub(super) fn in_link(&self) -> LinkId {
        LinkId(self.lid.0 ^ 1)
    }
}

/// A port's PFC pause accounting, in a vector parallel to the port table:
/// written on pause transitions and read at collect, never on a packet hop.
#[derive(Clone, Copy, Default)]
pub(super) struct PauseAcct {
    pub(super) paused_since: SimTime,
    pub(super) paused_total: SimTime,
    pub(super) ever_paused: bool,
}

impl Engine {
    /// Delivers a packet arriving at `to` on `in_port`. Returns `true` when
    /// the packet reached a flow endpoint (so the caller re-checks flow
    /// doneness).
    pub(super) fn deliver(&mut self, to: NodeId, in_port: PortId, pref: PacketRef) -> bool {
        let (f, dir, hop) = {
            let p = self.pkts.get(pref);
            (p.flow.0, p.dir, p.hop)
        };
        // The link the frame arrived on is named by the ingress port's
        // record, which only the conservation ledger and a fabric that has
        // seen a fault look at: a quiet run does not load it.
        if ConservationLedger::ON || !self.faults.is_quiet() {
            let in_link = self.ports[self.port_index(to, in_port)].in_link();
            let wire = self.pkts.get(pref).wire_size();
            self.ledger.on_arrival(in_link.0 as usize, wire);
            // A frame that was in flight when its link went down is
            // destroyed at the receiving end of the wire.
            if self.faults.is_down(in_link) {
                let pkt = self.pkts.take(pref);
                self.destroy_frame(to, in_port, &pkt);
                return false;
            }
        }
        let egress = match self.routes[f as usize].egress(dir, hop) {
            // A transit hop of a flow that was never re-pinned: neither the
            // flow nor its path is touched.
            Some(egress) => {
                if CHECK_PORT_TABLE {
                    self.check_route_hit(f, dir, hop, to, egress);
                }
                egress
            }
            None => match self.walk(to, in_port, pref, f, dir, hop) {
                ControlFlow::Continue(egress) => egress,
                ControlFlow::Break(endpoint) => return endpoint,
            },
        };
        self.transit(to, in_port, pref, f, egress);
        false
    }

    /// Where the route table has no answer — an endpoint arrival, a flow
    /// that was re-pinned, a path the table cannot hold — the flow's pinned
    /// path decides: `Continue(egress)` at a switch the path names at this
    /// hop, else `Break` with [`Engine::deliver`]'s result once the packet
    /// has been handed to its transport (`true`) or destroyed (`false`).
    fn walk(
        &mut self,
        to: NodeId,
        in_port: PortId,
        pref: PacketRef,
        f: u32,
        dir: Direction,
        hop: u8,
    ) -> ControlFlow<bool, PortId> {
        let rt = &mut self.flows[f as usize];
        let path = rt.path(dir);
        let h = hop as usize;
        if h >= path.len() {
            // A reroute may have swapped the path under a frame in flight;
            // only frames arriving at the real endpoint are delivered.
            let endpoint = match dir {
                Direction::Fwd => rt.dst,
                Direction::Rev => rt.src,
            };
            if to != endpoint {
                let pkt = self.pkts.take(pref);
                self.destroy_frame(to, in_port, &pkt);
                return ControlFlow::Break(false);
            }
            // Endpoint: the frame leaves the wire, so redeem its handle and
            // hand the packet to the transport.
            self.prof.deliver_endpoint();
            let pkt = self.pkts.take(pref);
            let rt = &mut self.flows[f as usize];
            // Every endpoint arrival advances the flow's ledger frontier to
            // `now`, attributing the window behind it — by the packet's own
            // journey decomposition in normal operation, wholesale to the
            // recovery phase otherwise. The completing arrival therefore
            // closes the conservation invariant at the exact FCT instant.
            if rt.complete_at.is_none() {
                let data_fwd = pkt.dir == Direction::Fwd && !pkt.is_control();
                rt.lg.on_arrival(self.now.as_ns(), &pkt.lg, data_fwd);
            }
            let mut ctx = Ctx {
                now: self.now,
                actions: &mut self.actions,
            };
            let mut finished = false;
            match pkt.dir {
                Direction::Fwd => {
                    rt.receiver.on_packet(&pkt, &mut ctx);
                    if rt.complete_at.is_none() && rt.receiver.is_complete() {
                        rt.complete_at = Some(self.now);
                        finished = true;
                    }
                }
                Direction::Rev => {
                    // A delivered ACK/NACK that triggers fast (or go-back-N)
                    // retransmission flips the ledger into fast recovery;
                    // the triggering arrival itself was attributed normally
                    // above, so the mode governs only the windows after it.
                    // (A `dyn` call the optimiser cannot see through, so
                    // it sits under `ON`.)
                    let pre_fast = FlowSlot::ON.then(|| rt.sender.stats().fast_retx);
                    rt.sender.on_packet(&pkt, &mut ctx);
                    if let Some(pre) = pre_fast {
                        if rt.complete_at.is_none() && rt.sender.stats().fast_retx > pre {
                            rt.lg.on_fast_retx(self.now.as_ns());
                        }
                    }
                }
            }
            if finished {
                self.tracer
                    .emit(self.now, || TraceEvent::FlowEnd { flow: f });
                // Flow-completion callbacks: release dependent flows, their
                // `start` now interpreted as think-time after completion.
                // The spec's relative delay is rewritten to the absolute
                // start so `SimResult` records stay uniform.
                let deps = std::mem::take(&mut self.dependents[f as usize]);
                for d in deps {
                    let at = self.now + self.flows[d as usize].spec.start;
                    self.flows[d as usize].spec.start = at;
                    self.sched(at, Event::FlowStart(d));
                }
            }
            self.flush_actions(f);
            return ControlFlow::Break(true);
        }
        // Transit switch. After a mid-flight reroute the hop index points
        // into the *new* path, which may visit different nodes: frames
        // stranded on the old path are destroyed, not misrouted.
        if path[h].node != to {
            let pkt = self.pkts.take(pref);
            self.destroy_frame(to, in_port, &pkt);
            return ControlFlow::Break(false);
        }
        ControlFlow::Continue(path[h].port)
    }

    /// The transit half of [`Engine::deliver`]: flow `f`'s frame `pref`
    /// arrived at switch `to` on `in_port` and leaves by `egress`.
    fn transit(&mut self, to: NodeId, in_port: PortId, pref: PacketRef, f: u32, egress: PortId) {
        self.prof.deliver_transit();
        let out = self.port_index(to, egress);
        let pause_cum = self.pause_cum_ns(out);
        // Provenance, captured before the switch takes ownership: a drop
        // outcome must be attributable to this flow's loss ring.
        let (p_dir, p_ctrl, p_epoch) = {
            let p = self.pkts.get_mut(pref);
            p.hop += 1;
            // Wait-begin stamp: the journey's switch-queue segment opens at
            // arrival and closes at the egress dequeue in `kick_port`.
            p.lg.wait_begin(self.now.as_ns(), pause_cum);
            (p.dir, p.is_control(), p.epoch)
        };
        let sw = self.switches[to.0 as usize]
            .as_mut()
            .expect("transit node must be a switch");
        let outcome = sw.enqueue(pref, &mut self.pkts, in_port, egress, self.now);
        let qlen = sw.queue_bytes(egress);
        let dropped = outcome.drop.map(|r| match r {
            DropReason::ColorThreshold => DropWhy::Color,
            DropReason::DynamicThreshold => DropWhy::Dynamic,
            DropReason::BufferOverflow => DropWhy::Overflow,
        });
        if let Some(why) = dropped {
            self.ledger.account_drop(why);
            self.note_loss(
                f,
                LossEvent {
                    at: self.now,
                    node: to.0,
                    port: egress.0,
                    why,
                    dir: p_dir,
                    control: p_ctrl,
                    epoch: p_epoch,
                },
            );
        }
        if let Some(sig) = outcome.pfc {
            self.send_pfc(to, sig);
        }
        if outcome.enqueued {
            if let Some(m) = self.metrics.as_mut() {
                m.on_enqueue(out, qlen);
            }
            self.kick_port(to, egress);
        }
    }

    /// Schedules a PFC pause/resume toward the device feeding `ingress`.
    pub(super) fn send_pfc(&mut self, node: NodeId, sig: PfcSignal) {
        let (ingress, pause) = match sig {
            PfcSignal::Pause(p) => (p, true),
            PfcSignal::Resume(p) => (p, false),
        };
        let rec = self.ports[self.port_index(node, ingress)];
        let (up_node, up_port) = rec.peer;
        self.sched(
            self.now + rec.spec.delay,
            Event::PfcSet {
                node: up_node,
                port: up_port,
                pause,
            },
        );
    }

    /// The `PfcSet` arm: a PFC pause/resume reaches egress `(node, port)`.
    pub(super) fn pfc_set(&mut self, node: NodeId, port: PortId, pause: bool) {
        let t = self.now;
        let i = self.port_index(node, port);
        if self.pause_acct.is_empty() {
            self.pause_acct = vec![PauseAcct::default(); self.ports.len()];
        }
        let ps = &mut self.ports[i];
        let acct = &mut self.pause_acct[i];
        if pause && !ps.paused {
            ps.paused = true;
            acct.ever_paused = true;
            acct.paused_since = t;
            self.tracer.emit(t, || TraceEvent::LinkPause {
                node: node.0,
                port: port.0,
            });
        } else if !pause && ps.paused {
            ps.paused = false;
            let started = acct.paused_since;
            acct.paused_total += t - started;
            // Log the episode for RTO attribution and observe
            // its duration when metrics are on.
            if self.pause_log.len() == PAUSE_LOG {
                self.pause_log.pop_front();
            }
            self.pause_log.push_back(PauseEpisode {
                node: node.0,
                port: port.0,
                start: started,
                end: t,
            });
            if let Some(m) = self.metrics.as_mut() {
                m.on_pause_end(i, (t - started).as_ns());
            }
            self.tracer.emit(t, || TraceEvent::LinkResume {
                node: node.0,
                port: port.0,
            });
            self.kick_port(node, port);
        }
    }

    /// Cumulative time port `i` has spent PFC-paused up to now. The journey
    /// stamps snapshot this at wait-begin and diff it at dequeue, so the PFC
    /// share of any wait costs two u64 reads, never a timeline walk. Read
    /// only when the stamps are on.
    #[inline]
    pub(super) fn pause_cum_ns(&self, i: usize) -> u64 {
        if !JourneyStamps::ON {
            return 0;
        }
        let Some(acct) = self.pause_acct.get(i) else {
            return 0;
        };
        acct.paused_total.as_ns()
            + if self.ports[i].paused {
                (self.now - acct.paused_since).as_ns()
            } else {
                0
            }
    }

    /// Whether anything waits in `(node, port)`'s egress queue (switch
    /// queue or host NIC queue).
    #[inline]
    fn has_backlog(&self, node: NodeId, port: PortId) -> bool {
        let n = node.0 as usize;
        match &self.switches[n] {
            Some(sw) => sw.has_packets(port),
            None => !self.host_q[n].is_empty(),
        }
    }

    /// Pushes the `TxDone` of the transmission in progress on `(node,
    /// port)` — table entry `i` — into its reserved FIFO slot `(free_at,
    /// free_seq)`. The one place a `TxDone` enters the queue, so the
    /// profiler counts pushes, not reservations (`sched_total ==
    /// queue_pushes`).
    fn push_tx_done(&mut self, i: usize, node: NodeId, port: PortId) {
        let ps = &mut self.ports[i];
        ps.tx_done_queued = true;
        let (at, seq) = (ps.free_at, ps.free_seq);
        self.prof.on_sched(EvKind::TxDone);
        self.queue
            .schedule_with_seq(at, seq, Event::TxDone { node, port });
    }

    /// A queued `TxDone` popped: the port is free, serve what waits.
    pub(super) fn tx_done(&mut self, node: NodeId, port: PortId) {
        let i = self.port_index(node, port);
        let ps = &mut self.ports[i];
        ps.busy = false;
        ps.tx_done_queued = false;
        self.kick_port(node, port);
    }

    /// Starts transmitting on `(node, port)` if it is idle, unpaused, and
    /// has a packet queued.
    ///
    /// Every path that can make a port transmit funnels through here
    /// (enqueue in `deliver`, `flush_actions`, PFC resume, the `TxDone`
    /// arm), which is what lets `TxDone` be lazy: a transmission only
    /// *reserves* its `TxDone`, and the event is pushed when — and only if
    /// — something queues up behind the frame while it is still on the
    /// port. See DESIGN §12 "Lazy TxDone" for the byte-identity argument.
    pub(super) fn kick_port(&mut self, node: NodeId, port: PortId) {
        let n = node.0 as usize;
        let i = self.port_index(node, port);
        let ps = self.ports[i];
        // Resolve `busy` before looking at `paused`: a paused port that is
        // still serializing with a backlog needs its `TxDone` like any
        // other.
        if ps.busy {
            if ps.tx_done_queued {
                return;
            }
            // Compare the `(time, seq)` pair, never the time alone: a frame
            // enqueued in the very nanosecond the port frees up sees it
            // busy iff the reserved `TxDone` would pop after the event
            // being executed.
            if (ps.free_at, ps.free_seq) > (self.now, self.queue.last_popped_seq()) {
                if self.has_backlog(node, port) {
                    self.push_tx_done(i, node, port);
                }
                return;
            }
            // The virtual `TxDone` already "fired", and on an empty queue
            // (anything enqueued before it would have kicked this port and
            // materialized it): the port is simply idle.
            self.ports[i].busy = false;
        }
        if ps.paused {
            return;
        }
        // `Switch::dequeue` on an empty queue returns `(None, None)` before
        // touching any counter, tracer or PFC state; eliding the idle
        // `TxDone` (whose only act was this call) relies on that.
        let pkt = if let Some(sw) = self.switches[n].as_mut() {
            let (pkt, sig) = sw.dequeue(&mut self.pkts, port, self.now);
            if let Some(sig) = sig {
                self.send_pfc(node, sig);
            }
            pkt
        } else {
            self.host_q[n].pop_front()
        };
        let Some(pkt) = pkt else { return };
        // Wait-close (the early return above guarantees the port is
        // unpaused now); the wire-time stamp follows once `tx` is known,
        // through the same lookup — a frame the wire then destroys takes
        // its stamps with it.
        let (pause_cum, at_host) = (self.pause_cum_ns(i), self.switches[n].is_none());
        let p = self.pkts.get_mut(pkt);
        p.lg.wait_end(self.now.as_ns(), pause_cum, at_host);
        let (lid, spec, to) = (ps.lid, ps.spec, ps.peer);
        let wire = p.wire_size();
        // The transmit time of this size on this link was worked out for
        // the previous frame more often than not (runs of full-size data,
        // runs of ACKs). Reusing it is exact while no fault has been
        // installed: same spec, same size, same integer division. After
        // that `FaultState` answers every time, rate factors included.
        let tx = if ps.memo_wire == wire && self.faults.is_quiet() {
            ps.memo_tx
        } else {
            let tx = self.faults.tx_time(lid, &spec, wire);
            let ps = &mut self.ports[i];
            (ps.memo_wire, ps.memo_tx) = (wire, tx);
            tx
        };
        p.lg.on_wire(tx.as_ns(), spec.delay.as_ns());
        self.ledger.on_tx(lid.0 as usize, wire);
        // Always reserve the `TxDone` tie-break seq here (before the
        // `Deliver` push, where the eager schedule sat); push the event
        // only if something already waits behind this frame.
        let free_seq = self.queue.reserve_seq();
        let ps = &mut self.ports[i];
        ps.busy = true;
        ps.free_at = self.now + tx;
        ps.free_seq = free_seq;
        if self.has_backlog(node, port) {
            self.push_tx_done(i, node, port);
        }
        // Link failure: the port still spends the serialization time, but
        // the frame goes onto a dead wire and is destroyed.
        if self.faults.is_down(lid) {
            let pkt = self.pkts.take(pkt);
            self.faults.down_drops += 1;
            self.ledger
                .on_tx_dropped(lid.0 as usize, wire, DropWhy::LinkDown);
            self.lose_frame(node, port, &pkt, DropWhy::LinkDown);
            return;
        }
        // Non-congestion (corruption) loss: same deal, the frame never
        // arrives. Only links with an active loss model consult the RNG.
        if self.faults.corrupts(lid) {
            let pkt = self.pkts.take(pkt);
            self.ledger
                .on_tx_dropped(lid.0 as usize, wire, DropWhy::Wire);
            self.lose_frame(node, port, &pkt, DropWhy::Wire);
            return;
        }
        self.ledger.on_scheduled(lid.0 as usize, wire);
        self.sched(
            self.now + tx + spec.delay,
            Event::Deliver {
                to: to.0,
                in_port: to.1,
                pkt,
            },
        );
    }

    /// Destroys a frame lost to a link fault (downed wire or a path made
    /// stale by a reroute), attributing it in the trace and counters.
    fn destroy_frame(&mut self, node: NodeId, port: PortId, pkt: &Packet) {
        self.prof.deliver_destroyed();
        self.faults.down_drops += 1;
        self.ledger.account_drop(DropWhy::LinkDown);
        self.lose_frame(node, port, pkt, DropWhy::LinkDown);
    }

    /// The one loss path of the wire: `pkt` died at `(node, port)` for
    /// `why` — on a dead or corrupting wire at serialization, or destroyed
    /// at arrival. Traces the drop and remembers it for RTO attribution;
    /// the counters (`faults`, the conservation ledger) differ by site and
    /// stay with the callers.
    fn lose_frame(&mut self, node: NodeId, port: PortId, pkt: &Packet, why: DropWhy) {
        self.tracer.emit(self.now, || TraceEvent::Drop {
            node: node.0,
            port: port.0,
            flow: pkt.flow.0,
            seq: pkt.seq,
            why,
            green: pkt.color == Color::Green && !pkt.is_control(),
        });
        self.note_loss(
            pkt.flow.0,
            LossEvent {
                at: self.now,
                node: node.0,
                port: port.0,
                why,
                dir: pkt.dir,
                control: pkt.is_control(),
                epoch: pkt.epoch,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::small_single_switch;

    /// White-box stepper for the lazy-`TxDone` tests: stands in for the run
    /// loop so a test can place a send at an exact `(time, seq)` queue
    /// position and look at the port and the event queue afterwards.
    struct Rig {
        eng: Engine,
        /// The sending host of flow 0.
        src: NodeId,
        /// Serialization time of one [`Rig::send`] frame, and the link's
        /// propagation delay (ns).
        tx: u64,
        delay: u64,
    }

    const RIG_FRAME: u32 = 1440;

    impl Rig {
        fn new() -> Rig {
            Rig::with_faults(faults::FaultSchedule::new())
        }

        fn with_faults(schedule: faults::FaultSchedule) -> Rig {
            let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
                .with_topology(small_single_switch(2))
                .with_faults(schedule);
            // The flows only lend their paths to the frames; their own
            // FlowStarts sit at the horizon and are never popped. Flow 1
            // runs the other way, so its ACKs leave by flow 0's NIC.
            let flows = [(0, 1), (1, 0)]
                .map(|(s, d)| FlowSpec::new(s, d, 1_000_000, SimTime::from_secs(1), false));
            let eng = Engine::new(cfg, flows.to_vec());
            let src = eng.flows[0].src;
            let spec = eng.ports[eng.port_index(src, PortId(0))].spec;
            let wire = Packet::data(FlowId(0), 0, RIG_FRAME).wire_size();
            Rig {
                tx: spec.tx_time(wire).as_ns(),
                delay: spec.delay.as_ns(),
                eng,
                src,
            }
        }

        /// Schedules a no-op event: a `(time, seq)` position to act from.
        fn mark(&mut self, at: u64) {
            self.eng
                .queue
                .schedule(SimTime::from_ns(at), Event::QueueSample);
        }

        /// Pops the next event and advances the clock, as the run loop does.
        fn pop(&mut self) -> (u64, Event) {
            let (t, ev) = self.eng.queue.pop().expect("an event is pending");
            self.eng.now = t;
            (t.as_ns(), ev)
        }

        /// Pops the next event, which must be a marker at `at`.
        fn pop_mark(&mut self, at: u64) {
            assert!(matches!(self.pop(), (t, Event::QueueSample) if t == at));
        }

        /// Pops the next event, which must be the NIC's `TxDone` at `at`,
        /// and executes it.
        fn pop_tx_done(&mut self, at: u64) {
            let (t, ev) = self.pop();
            let Event::TxDone { node, port } = ev else {
                panic!("expected a TxDone at {at}");
            };
            assert_eq!((t, node, port), (at, self.src, PortId(0)));
            self.eng.tx_done(node, port);
        }

        /// The source host's transport emits `n` frames at this instant.
        fn send(&mut self, n: u64) {
            for i in 0..n {
                let pkt = Packet::data(FlowId(0), i * u64::from(RIG_FRAME), RIG_FRAME);
                self.eng.actions.push(Action::Send(pkt));
            }
            self.eng.flush_actions(0);
        }

        fn nic(&self) -> Port {
            self.eng.ports[self.eng.port_index(self.src, PortId(0))]
        }

        fn waiting(&self) -> usize {
            self.eng.host_q[self.src.0 as usize].len()
        }

        /// `(queue pushes, seqs allocated)` so far.
        fn churn(&self) -> (u64, u64) {
            (self.eng.queue.scheduled_total(), self.eng.queue.seq_total())
        }

        /// Drains the queue down to the parked FlowStarts; returns the
        /// arrival times of every `Deliver` on the way.
        fn arrivals(&mut self) -> Vec<u64> {
            let mut out = Vec::new();
            while self.eng.queue.len() > self.eng.flows.len() {
                if let (t, Event::Deliver { .. }) = self.pop() {
                    out.push(t);
                }
            }
            out
        }
    }

    /// Same-nanosecond tie: a frame enqueued at exactly `free_at` sees the
    /// port busy iff the reserved `TxDone` seq is still ahead of the event
    /// doing the enqueue. Either way it departs at `free_at`, as in the
    /// eager engine — but *from which event* decides every seq allocated
    /// downstream, so the two sides must not be confused.
    #[test]
    fn lazy_tx_done_breaks_free_at_ties_on_the_reserved_seq() {
        for above in [false, true] {
            let mut r = Rig::new();
            let (t0, tx, delay) = (1_000, r.tx, r.delay);
            r.mark(t0);
            // Scheduled before frame A reserves its `TxDone` seq: "below".
            r.mark(t0 + tx);
            r.pop_mark(t0);
            r.send(1);
            let a = r.nic();
            assert!(a.busy && !a.tx_done_queued, "a lone frame pushes no TxDone");
            assert_eq!(a.free_at, SimTime::from_ns(t0 + tx));
            // Scheduled after: "above".
            r.mark(t0 + tx);
            r.pop_mark(t0 + tx);
            assert!(r.eng.queue.last_popped_seq() < a.free_seq);
            if above {
                r.pop_mark(t0 + tx);
                assert!(r.eng.queue.last_popped_seq() > a.free_seq);
            }
            let before = r.churn();
            r.send(1);
            if above {
                // The virtual TxDone already fired: B leaves on the spot.
                assert_eq!(r.waiting(), 0);
                assert_eq!(r.churn(), (before.0 + 1, before.1 + 2), "Deliver only");
            } else {
                // Still busy: B waits, and the TxDone is materialized in
                // its reserved slot — ahead of the "above" marker that was
                // scheduled (and so pushed) before it.
                assert_eq!(r.waiting(), 1);
                assert!(r.nic().tx_done_queued);
                assert_eq!(r.churn(), (before.0 + 1, before.1), "TxDone only");
                r.pop_tx_done(t0 + tx);
                assert_eq!(r.waiting(), 0);
                r.pop_mark(t0 + tx);
            }
            let b = r.nic();
            assert!(b.busy && !b.tx_done_queued);
            assert_eq!(
                b.free_at,
                SimTime::from_ns(t0 + 2 * tx),
                "B left at free_at"
            );
            assert_eq!(r.arrivals(), [t0 + tx + delay, t0 + 2 * tx + delay]);
        }
    }

    /// Host NIC: a lone send pushes no `TxDone`; a burst materializes the
    /// first frame's `TxDone` when the second queues up behind it, then
    /// pushes eagerly for as long as a backlog remains. Departures are
    /// back-to-back at line rate, exactly the eager engine's.
    #[test]
    fn lazy_tx_done_pushes_only_behind_a_backlog() {
        let mut r = Rig::new();
        let (tx, delay) = (r.tx, r.delay);
        // A lone send, then another after the virtual TxDone has passed.
        for t in [1_000, 1_000 + 10 * tx] {
            r.mark(t);
            r.pop_mark(t);
            let before = r.churn();
            r.send(1);
            assert_eq!(r.churn(), (before.0 + 1, before.1 + 2), "Deliver only");
            let ps = r.nic();
            assert!(ps.busy && !ps.tx_done_queued);
            assert_eq!(ps.free_at, SimTime::from_ns(t + tx), "left at once");
        }
        assert_eq!(r.arrivals(), [1_000 + tx + delay, 1_000 + 11 * tx + delay]);
        // A burst of three in one transport callback.
        let t = 100_000;
        r.mark(t);
        r.pop_mark(t);
        let before = r.churn();
        r.send(3);
        // Frame 1 left (Deliver); frame 2 materialized frame 1's TxDone;
        // frame 3 found it queued.
        assert_eq!(r.churn(), (before.0 + 2, before.1 + 2));
        assert_eq!(r.waiting(), 2);
        // Frame 2 leaves with frame 3 behind it: eager push.
        let before = r.churn();
        r.pop_tx_done(t + tx);
        assert_eq!(r.churn(), (before.0 + 2, before.1 + 2), "TxDone + Deliver");
        assert!(r.nic().tx_done_queued);
        // Frame 3 leaves an empty queue: lazy again.
        let before = r.churn();
        r.pop_tx_done(t + 2 * tx);
        assert_eq!(r.churn(), (before.0 + 1, before.1 + 2), "Deliver only");
        let ps = r.nic();
        assert!(ps.busy && !ps.tx_done_queued);
        assert_eq!(ps.free_at, SimTime::from_ns(t + 3 * tx));
        let due = [1, 2, 3].map(|k| t + k * tx + delay);
        assert_eq!(r.arrivals(), due);
    }

    /// PFC against a lazily busy port, through the real run loop: host
    /// index 1 sends a lone frame at 20 us, a pause storm reaches its NIC
    /// mid-serialization (empty queue, no `TxDone` queued), and a second
    /// frame is enqueued under the pause. It must leave when the eager
    /// engine would release it: at `free_at` if the resume came first, at
    /// the resume otherwise — including when the virtual `TxDone` passed
    /// unseen while the port was paused.
    #[test]
    fn lazy_tx_done_under_pfc_pause_keeps_eager_departure_times() {
        use telemetry::RingSink;
        const START: u64 = 20_000;
        const XOFF_AT_SWITCH: u64 = 10_100;
        // Arrival times at the switch of the two flows' data frames, and
        // when the NIC was paused / resumed.
        let run = |second_start: u64, storm: u64| {
            let mut cfg =
                SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
            cfg.faults = faults::FaultSchedule::new().pause_storm(
                SimTime::from_ns(XOFF_AT_SWITCH),
                0,
                1,
                SimTime::from_ns(storm),
            );
            let flows = [START, second_start]
                .map(|at| FlowSpec::new(1, 0, u64::from(RIG_FRAME), SimTime::from_ns(at), true));
            let mut eng = Engine::new(cfg, flows.to_vec());
            let (tracer, sink) = Tracer::new(RingSink::new(1 << 12));
            eng.set_tracer(tracer);
            let res = eng.run();
            assert!(res.flows.iter().all(|f| f.end.is_some()));
            assert_eq!(res.agg.timeouts, 0);
            let sink = sink.borrow();
            let at = |want: &dyn Fn(&TraceEvent) -> bool| {
                let mut hits = sink.events().filter(|(_, ev)| want(ev));
                let t = hits.next().expect("event traced").0.as_ns();
                assert!(hits.next().is_none(), "traced exactly once");
                t
            };
            // A flow's data frame reaching the switch (egress 0 faces the
            // receiver; ACKs go out the other way).
            let arrival = |f: u32| {
                at(&move |ev| match ev {
                    TraceEvent::Enqueue {
                        node, port, flow, ..
                    } => (*node, *port, *flow) == (0, 0, f),
                    _ => false,
                })
            };
            let paused = at(&|ev| matches!(ev, TraceEvent::LinkPause { node: 2, port: 0 }));
            let resumed = at(&|ev| matches!(ev, TraceEvent::LinkResume { node: 2, port: 0 }));
            (arrival(0), arrival(1), paused, resumed)
        };
        let rig = Rig::new();
        let (tx, delay) = (rig.tx, rig.delay);
        let free_at = START + tx;
        let pause_at = XOFF_AT_SWITCH + delay;
        assert!(
            START < pause_at && pause_at + 50 < free_at,
            "pause lands mid-frame"
        );

        // Resume before free_at: the frame waits for the (materialized)
        // TxDone and leaves at free_at.
        let (a0, a1, paused, resumed) = run(pause_at + 20, 50);
        assert_eq!((paused, resumed), (pause_at, pause_at + 50));
        assert_eq!((a0, a1), (free_at + delay, free_at + tx + delay));

        // Resume after free_at: the TxDone pops into a paused port; the
        // resume releases the frame.
        let (a0, a1, _, resumed) = run(pause_at + 20, 5_000);
        assert_eq!(resumed, pause_at + 5_000);
        assert_eq!((a0, a1), (free_at + delay, resumed + tx + delay));

        // Enqueued under the pause but after free_at: the virtual TxDone
        // never materialized and the port is found idle-but-paused.
        let (a0, a1, _, resumed) = run(free_at + 700, 5_000);
        assert_eq!((a0, a1), (free_at + delay, resumed + tx + delay));
    }

    /// The serialization-time memo: data and ACK frames of two sizes share
    /// one NIC, in runs and alternating, so the one-entry memo both hits and
    /// misses; then a `Degrade` slows the link to 0.4 of its rate. Every
    /// frame must reach the switch when the closed forms say —
    /// `LinkSpec::tx_time` before the fault, `FaultState::tx_time`'s ceiling
    /// after it (the memo still holds the nominal time of the very size sent
    /// next).
    #[test]
    fn tx_time_memo_matches_the_closed_forms_across_a_degrade() {
        const FACTOR: f64 = 0.4;
        const DEGRADE_AT: u64 = 50_000;
        // Host index 0 is node 1 (the switch is node 0).
        let mut r = Rig::with_faults(faults::FaultSchedule::new().degrade(
            SimTime::from_ns(DEGRADE_AT),
            1,
            0,
            faults::LossModel::None,
            Some(FACTOR),
        ));
        assert_eq!(r.src, NodeId(1));
        let spec = r.nic().spec;
        let data = || Packet::data(FlowId(0), 0, RIG_FRAME);
        let ack = || Packet::ack(FlowId(1), 0);
        let burst = |r: &mut Rig, t0: u64, tx_of: &dyn Fn(u32) -> u64| {
            r.mark(t0);
            r.pop_mark(t0);
            let frames = [data(), ack(), ack(), data(), data(), ack(), data()];
            let mut due = Vec::new();
            let mut free_at = t0;
            for pkt in frames {
                free_at += tx_of(pkt.wire_size());
                due.push(free_at + r.delay);
                // Flow 1's ACKs travel `Rev`, i.e. out of flow 0's source.
                let flow = pkt.flow.0;
                r.eng.actions.push(Action::Send(pkt));
                r.eng.flush_actions(flow);
            }
            due
        };
        let nominal = |wire: u32| spec.tx_time(wire).as_ns();
        let mut due = burst(&mut r, 1_000, &nominal);
        assert!(r.eng.faults.is_quiet());
        assert_ne!(nominal(data().wire_size()), nominal(ack().wire_size()));

        // Serve the NIC queue up to the fault, apply it, send again.
        let mut got = Vec::new();
        loop {
            match r.pop() {
                (t, Event::Deliver { .. }) => got.push(t),
                (_, Event::TxDone { node, port }) => r.eng.tx_done(node, port),
                (t, Event::Fault(i)) => {
                    assert_eq!(t, DEGRADE_AT);
                    r.eng.apply_fault(i as usize);
                    break;
                }
                _ => panic!("unexpected event"),
            }
        }
        assert!(!r.eng.faults.is_quiet());
        assert_eq!(
            r.nic().memo_wire,
            data().wire_size(),
            "memo holds the next size"
        );
        let degraded = |wire: u32| ((nominal(wire) as f64 / FACTOR).ceil() as u64).max(1);
        assert!(degraded(data().wire_size()) > 2 * nominal(data().wire_size()));
        due.extend(burst(&mut r, 100_000, &degraded));
        while r.eng.queue.len() > r.eng.flows.len() {
            match r.pop() {
                (t, Event::Deliver { .. }) => got.push(t),
                (_, Event::TxDone { node, port }) => r.eng.tx_done(node, port),
                _ => panic!("unexpected event"),
            }
        }
        assert_eq!(got, due);
    }
}
