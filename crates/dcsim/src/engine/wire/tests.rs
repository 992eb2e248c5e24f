//! The wire path's white-box tests: a stepper (`Rig`) that stands in for
//! the run loop, for the lazy-`TxDone` port state machine and the
//! serialization-time memo.

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
        self.eng.host_q[self.src.0 as usize - self.eng.switches.len()].len(&self.eng.pkts)
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
        let (tracer, sink) = Tracer::new(Vec::<(SimTime, TraceEvent)>::new());
        eng.set_tracer(tracer);
        let res = eng.run();
        assert!(res.flows.iter().all(|f| f.end.is_some()));
        assert_eq!(res.agg.timeouts, 0);
        let sink = sink.borrow();
        let at = |want: &dyn Fn(&TraceEvent) -> bool| {
            let mut hits = sink.iter().filter(|(_, ev)| want(ev));
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
