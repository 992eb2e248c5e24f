//! Per-flow timers (lazy arming, generation-based cancellation) and the
//! application of the actions a transport callback produced.

use super::*;

/// Only a sender arms or cancels a timer, so a flow that does has its
/// running state.
const SENDER_ACTION: &str = "a timer action comes from a running flow's sender";

impl Engine {
    /// The `Timer` arm: consumes the slot's queue entry and, when the
    /// generation is still live, fires the transport's timer. Returns
    /// whether it was live (so the run loop re-checks the flow's doneness,
    /// or tallies a stale pop).
    pub(super) fn fire_timer(&mut self, flow: u32, kind: TimerKind, gen: u64) -> bool {
        let t = self.now;
        let slot = kind as usize;
        // A folded flow has no timer slots. Its slots were all disarmed
        // before the fold, so this pop is a cancellation, and no superseding
        // arm can have parked a deadline behind it.
        let Some(run) = self.flows[flow as usize].run.as_deref_mut() else {
            return false;
        };
        // This pop consumes the slot's in-queue entry (if it is
        // still ours: a later arm may have queued a new one).
        if run.timer_queued_at[slot].is_some() && run.timer_queued_gen[slot] == gen {
            run.timer_queued_at[slot] = None;
        }
        if run.timer_gen[slot] != gen {
            // Generation mismatch: this pop is a cancellation.
            // A superseding arm may have parked a deadline on
            // this slot waiting for our entry to clear —
            // materialize it now, at its reserved seq, exactly
            // where an eager push would have popped.
            if run.timer_armed[slot] && run.timer_queued_at[slot].is_none() {
                let at = run.timer_deadline[slot];
                let g = run.timer_gen[slot];
                let seq = run.timer_res_seq[slot];
                run.timer_queued_at[slot] = Some(at);
                run.timer_queued_gen[slot] = g;
                self.queue
                    .schedule_with_seq(at, seq, Event::Timer { flow, kind, gen: g });
            }
            return false;
        }
        run.timer_armed[slot] = false;
        self.tracer.emit(t, || TraceEvent::TimerFire { flow, kind });
        // RTO forensics: detect whether this firing actually
        // registered a timeout (the transport may ignore a
        // stale timer), and attribute it *before* flushing
        // actions so the retransmissions carry the new epoch.
        let pre_rto = (kind == TimerKind::Rto).then(|| run.tx.stats().timeouts);
        run.tx.on_timer(
            kind,
            &mut Ctx {
                now: t,
                actions: &mut self.actions,
            },
        );
        if pre_rto.is_some_and(|pre| run.tx.stats().timeouts > pre) {
            self.attribute_rto(flow, t);
        }
        self.flush_actions(flow);
        true
    }

    /// Cancels every armed timer of flow `f` (fixed slot order, so the
    /// trace and generation bumps are deterministic).
    pub(super) fn disarm_timers(&mut self, f: u32) {
        prof!(self, disarm_sweeps += 1);
        let Some(run) = self.flows[f as usize].run.as_deref_mut() else {
            return;
        };
        for kind in TimerKind::ALL {
            let s = kind as usize;
            if run.timer_armed[s] {
                run.timer_gen[s] += 1;
                run.timer_armed[s] = false;
                prof!(self, disarm_cancels += 1);
                self.tracer
                    .emit(self.now, || TraceEvent::TimerCancel { flow: f, kind });
            }
        }
    }

    /// Applies the actions a transport callback produced for flow `f`.
    pub(super) fn flush_actions(&mut self, f: u32) {
        // Swap the buffer out to satisfy the borrow checker cheaply.
        let mut actions = std::mem::take(&mut self.actions);
        for a in actions.drain(..) {
            match a {
                Action::Send(mut pkt) => {
                    let rt = &self.flows[f as usize];
                    let origin = match pkt.dir {
                        Direction::Fwd => rt.src,
                        Direction::Rev => rt.dst,
                    };
                    pkt.hop = 1;
                    pkt.epoch = rt.tx_epoch;
                    // HPCC: every switch on the way appends one INT hop to
                    // a data packet; one allocation of the final size
                    // instead of the doubling growth.
                    if self.cfg.transport == TransportKind::Hpcc && !pkt.is_control() {
                        let hops = self.routes[f as usize]
                            .path_len(Direction::Fwd)
                            .unwrap_or_else(|| self.path(f, Direction::Fwd).len());
                        pkt.int_stack.reserve_exact(hops - 1);
                    }
                    // The frame enters the arena here and stays there for
                    // its whole wire lifetime; only handles move from now on.
                    let pkt = self.pkts.insert(pkt);
                    // Journey origin: the packet enters the host egress
                    // queue (always port 0 of a host) right now.
                    self.stamp(pkt, (origin, PortId(0)), |j, now, pause_cum| {
                        j.start(now, pause_cum)
                    });
                    self.host_q[origin.0 as usize - self.switches.len()]
                        .push_back(&mut self.pkts, pkt);
                    self.kick_port(origin, PortId(0));
                }
                Action::SetTimer { kind, at } => {
                    let run = self.flows[f as usize]
                        .run
                        .as_deref_mut()
                        .expect(SENDER_ACTION);
                    let s = kind as usize;
                    run.timer_gen[s] += 1;
                    run.timer_armed[s] = true;
                    if kind == TimerKind::Rto {
                        run.rto_armed_at = self.now;
                    }
                    let gen = run.timer_gen[s];
                    let at = at.max(self.now);
                    run.timer_deadline[s] = at;
                    self.tracer
                        .emit(self.now, || TraceEvent::TimerArm { flow: f, kind, at });
                    // Reserve the tie-break seq unconditionally so pop
                    // order is independent of whether the push is deferred.
                    let seq = self.queue.reserve_seq();
                    run.timer_res_seq[s] = seq;
                    // Push only when this deadline beats the slot's pending
                    // queue entry; otherwise park it — the pending pop will
                    // re-arm us (or a later SetTimer supersedes us first,
                    // and this deadline never touches the queue at all).
                    if run.timer_queued_at[s].is_none_or(|q| at < q) {
                        run.timer_queued_at[s] = Some(at);
                        run.timer_queued_gen[s] = gen;
                        self.queue
                            .schedule_with_seq(at, seq, Event::Timer { flow: f, kind, gen });
                    }
                }
                Action::CancelTimer { kind } => {
                    let run = self.flows[f as usize]
                        .run
                        .as_deref_mut()
                        .expect(SENDER_ACTION);
                    let s = kind as usize;
                    run.timer_gen[s] += 1;
                    run.timer_armed[s] = false;
                    self.tracer
                        .emit(self.now, || TraceEvent::TimerCancel { flow: f, kind });
                }
            }
        }
        self.actions = actions;
    }
}
