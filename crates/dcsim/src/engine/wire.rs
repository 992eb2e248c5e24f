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
    /// Delivers a packet arriving at `to` on `in_port`, returning where it
    /// landed (at an endpoint, the caller re-checks flow doneness).
    pub(super) fn deliver(&mut self, to: NodeId, in_port: PortId, pref: PacketRef) -> Landed {
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
                return Landed::Destroyed;
            }
        }
        let egress = match self.routes[f as usize].egress(dir, hop) {
            // A transit hop of a flow that was never re-pinned: neither the
            // flow nor its path is touched.
            Some(egress) => {
                if cfg!(debug_assertions) {
                    self.check_route_hit(f, dir, hop, to, egress);
                }
                egress
            }
            None => match self.walk(to, in_port, pref, f, dir, hop) {
                ControlFlow::Continue(egress) => egress,
                ControlFlow::Break(landed) => return landed,
            },
        };
        self.transit(to, in_port, pref, f, egress);
        Landed::Transit
    }

    /// Where the route table has no answer — an endpoint arrival, a flow
    /// that was re-pinned, a path the table cannot hold — the flow's pinned
    /// path decides: `Continue(egress)` at a switch the path names at this
    /// hop, else `Break` with [`Engine::deliver`]'s result once the packet
    /// has been handed to its transport (`true`) or destroyed (`false`). A
    /// flow with a record is past its path's last switch (the record
    /// answered every transit hop), so only a flow without one derives its
    /// path.
    fn walk(
        &mut self,
        to: NodeId,
        in_port: PortId,
        pref: PacketRef,
        f: u32,
        dir: Direction,
        hop: u8,
    ) -> ControlFlow<Landed, PortId> {
        let h = usize::from(hop);
        let transit = match self.routes[f as usize].path_len(dir) {
            Some(len) => {
                debug_assert!(h >= len, "the record answers hop {h} of {len}");
                None
            }
            None => self.path(f, dir).get(h).copied(),
        };
        let Some(next) = transit else {
            let rt = &self.flows[f as usize];
            // A reroute may have swapped the path under a frame in flight;
            // only frames arriving at the real endpoint are delivered.
            let endpoint = match dir {
                Direction::Fwd => rt.dst,
                Direction::Rev => rt.src,
            };
            if to != endpoint {
                let pkt = self.pkts.take(pref);
                self.destroy_frame(to, in_port, &pkt);
                return ControlFlow::Break(Landed::Destroyed);
            }
            // Endpoint: the frame leaves the wire, so redeem its handle and
            // hand the packet to the transport.
            let rt = &mut self.flows[f as usize];
            // Every endpoint arrival advances the flow's ledger frontier to
            // `now`, attributing the window behind it — by the packet's own
            // journey decomposition in normal operation, wholesale to the
            // recovery phase otherwise. The completing arrival therefore
            // closes the conservation invariant at the exact FCT instant.
            if let (Some(lg), None) = (self.latency.as_mut(), rt.complete_at) {
                let p = self.pkts.get(pref);
                let data_fwd = p.dir == Direction::Fwd && !p.is_control();
                let j = self.pkts.journey(pref).expect("the ledger stamps journeys");
                lg[f as usize].on_arrival(self.now.as_ns(), j, data_fwd);
            }
            let pkt = self.pkts.take(pref);
            let mut ctx = Ctx {
                now: self.now,
                actions: &mut self.actions,
            };
            let mut finished = false;
            match pkt.dir {
                Direction::Fwd => {
                    let rx = rt.rx.as_mut().expect("data of a started flow");
                    rx.on_packet(&pkt, &mut ctx);
                    if rt.complete_at.is_none() && rx.is_complete() {
                        rt.complete_at = Some(self.now);
                        finished = true;
                    }
                }
                // A done flow's sender was folded: the ACK/NACK/CNP would
                // have found it done and changed nothing.
                Direction::Rev => {
                    if let Some(Running { tx, .. }) = rt.run.as_deref_mut() {
                        // A delivered ACK/NACK that triggers fast (or
                        // go-back-N) retransmission flips the ledger into
                        // fast recovery; the triggering arrival itself was
                        // attributed normally above, so the mode governs
                        // only the windows after it. (A `dyn` call the
                        // optimiser cannot see through, so it is made only
                        // with the ledger attached.)
                        let pre_fast = self.latency.is_some().then(|| tx.stats().fast_retx);
                        tx.on_packet(&pkt, &mut ctx);
                        if let (Some(pre), Some(lg)) = (pre_fast, self.latency.as_mut()) {
                            if rt.complete_at.is_none() && tx.stats().fast_retx > pre {
                                lg[f as usize].on_fast_retx(self.now.as_ns());
                            }
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
                for i in self.dependents.range(f) {
                    let d = self.dependents.flows[i];
                    let spec = &mut self.specs[d as usize];
                    let at = self.now + spec.start;
                    spec.start = at;
                    self.queue.schedule(at, Event::FlowStart(d));
                }
            }
            self.flush_actions(f);
            return ControlFlow::Break(Landed::Endpoint);
        };
        // Transit switch. After a mid-flight reroute the hop index points
        // into the *new* path, which may visit different nodes: frames
        // stranded on the old path are destroyed, not misrouted.
        if next.node != to {
            let pkt = self.pkts.take(pref);
            self.destroy_frame(to, in_port, &pkt);
            return ControlFlow::Break(Landed::Destroyed);
        }
        ControlFlow::Continue(next.port)
    }

    /// The transit half of [`Engine::deliver`]: flow `f`'s frame `pref`
    /// arrived at switch `to` on `in_port` and leaves by `egress`.
    fn transit(&mut self, to: NodeId, in_port: PortId, pref: PacketRef, f: u32, egress: PortId) {
        let out = self.port_index(to, egress);
        // Wait-begin stamp: the journey's switch-queue segment opens at
        // arrival and closes at the egress dequeue in `kick_port`.
        self.stamp(pref, (to, egress), |j, now, pause_cum| {
            j.wait_begin(now, pause_cum)
        });
        // Provenance, captured before the switch takes ownership: a drop
        // outcome must be attributable to this flow's loss summary.
        let (p_dir, p_ctrl, p_epoch) = {
            let p = self.pkts.get_mut(pref);
            p.hop += 1;
            (p.dir, p.is_control(), p.epoch)
        };
        let sw = &mut self.switches[to.0 as usize];
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
        self.queue.schedule(
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

    /// Runs `stamp` on frame `r`'s journey stamps with the time now and
    /// the cumulative PFC pause of `node`'s egress `port`, when the ledger
    /// is attached: one predictable branch otherwise.
    #[inline]
    pub(super) fn stamp(
        &mut self,
        r: PacketRef,
        (node, port): (NodeId, PortId),
        stamp: impl FnOnce(&mut JourneyStamps, u64, u64),
    ) {
        if self.latency.is_some() {
            let i = self.port_index(node, port);
            let (now, pause_cum) = (self.now.as_ns(), self.pause_cum_ns(i));
            if let Some(j) = self.pkts.journey_mut(r) {
                stamp(j, now, pause_cum);
            }
        }
    }

    /// Cumulative time port `i` has spent PFC-paused up to now. The journey
    /// stamps snapshot this at wait-begin and diff it at dequeue, so the PFC
    /// share of any wait costs two u64 reads, never a timeline walk.
    #[inline]
    fn pause_cum_ns(&self, i: usize) -> u64 {
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
        match self.switches.get(n) {
            Some(sw) => sw.has_packets(port),
            None => !self.host_q[n - self.switches.len()].is_empty(),
        }
    }

    /// Pushes the `TxDone` of the transmission in progress on `(node,
    /// port)` — table entry `i` — into its reserved FIFO slot `(free_at,
    /// free_seq)`. The one place a `TxDone` enters the queue.
    fn push_tx_done(&mut self, i: usize, node: NodeId, port: PortId) {
        let ps = &mut self.ports[i];
        ps.tx_done_queued = true;
        let (at, seq) = (ps.free_at, ps.free_seq);
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
        let pkt = if let Some(sw) = self.switches.get_mut(n) {
            let (pkt, sig) = sw.dequeue(&mut self.pkts, port, self.now);
            if let Some(sig) = sig {
                self.send_pfc(node, sig);
            }
            pkt
        } else {
            self.host_q[n - self.switches.len()].pop_front(&self.pkts)
        };
        let Some(pkt) = pkt else { return };
        let (lid, spec, to) = (ps.lid, ps.spec, ps.peer);
        let wire = self.pkts.get(pkt).wire_size();
        // The transmit time of this size on this link was worked out for
        // the previous frame more often than not (runs of full-size data,
        // runs of ACKs). Reusing it is exact: only a `Degrade` changes a
        // link's rate, and it re-prices this memo when it does
        // (`apply_fault`).
        let tx = if ps.memo_wire == wire {
            debug_assert_eq!(
                ps.memo_tx,
                self.faults.tx_time(lid, &spec, wire),
                "tx-time memo of port {i}"
            );
            ps.memo_tx
        } else {
            let tx = self.faults.tx_time(lid, &spec, wire);
            let ps = &mut self.ports[i];
            (ps.memo_wire, ps.memo_tx) = (wire, tx);
            tx
        };
        // Wait-close (the early return above guarantees the port is
        // unpaused now) and the wire time — a frame the wire then destroys
        // takes its stamps with it.
        let at_host = n >= self.switches.len();
        self.stamp(pkt, (node, port), |j, now, pause_cum| {
            j.wait_end(now, pause_cum, at_host);
            j.on_wire(tx.as_ns(), spec.delay.as_ns());
        });
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
        self.queue.schedule(
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
mod tests;
