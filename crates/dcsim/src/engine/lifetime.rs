//! Each flow's running state lives exactly as long as the flow runs (DESIGN
//! §12 "Flow lifecycle"). Before its `FlowStart` a flow has no sender, no
//! receiver and no timer slots; `FlowStart` builds the receiver and the
//! [`Running`] box (sender, timer slots, loss ring); once the flow is done
//! and its timers are disarmed the box is dropped and its sender consumed
//! into its counters. The receiver stays to the end of the run, to ACK late
//! duplicate data.

use super::*;

impl FlowRuntime {
    /// Delivered and acknowledged in full. A flow that has not started has
    /// no `complete_at`; a folded one was done when it was folded.
    pub(super) fn is_done(&self) -> bool {
        self.complete_at.is_some() && self.run.as_ref().is_none_or(|run| run.tx.is_done())
    }
}

impl Running {
    /// A started flow's box: `tx`, every timer slot unarmed, no loss seen.
    fn new(tx: Box<dyn FlowSender>) -> Running {
        Running {
            tx,
            timer_gen: [0; TIMER_KINDS.len()],
            timer_armed: [false; TIMER_KINDS.len()],
            rto_armed_at: SimTime::ZERO,
            losses: std::collections::VecDeque::new(),
            timer_deadline: [SimTime::ZERO; TIMER_KINDS.len()],
            timer_queued_at: [None; TIMER_KINDS.len()],
            timer_queued_gen: [0; TIMER_KINDS.len()],
            timer_res_seq: [0; TIMER_KINDS.len()],
        }
    }
}

impl Engine {
    /// Flow `f`'s sender counters, whether it has not started (the defaults
    /// a sender that never started reports), runs, or is done (what its
    /// sender was folded into).
    pub(super) fn sender_stats(&self, f: u32) -> &SenderStats {
        match &self.flows[f as usize].run {
            Some(run) => run.tx.stats(),
            None => &self.counters[f as usize],
        }
    }

    /// The transport half of flow `f`'s `FlowStart`: builds its receiver and
    /// running state, attaches the tracer when it is on, and starts the
    /// sender. Construction reads no RNG and no clock, so when it happens
    /// changes nothing about the pair.
    pub(super) fn start_transport(&mut self, f: u32) {
        self.build_pair(f);
        let run = self.flows[f as usize].run.as_mut().expect("just built");
        if self.tracer.is_on() {
            run.tx.set_tracer(self.tracer.clone());
        }
        run.tx.start(&mut Ctx {
            now: self.now,
            actions: &mut self.actions,
        });
    }

    /// Builds flow `f`'s receiver and running state unless they exist (which
    /// only the test-only eager mode arranges).
    fn build_pair(&mut self, f: u32) {
        let rt = &mut self.flows[f as usize];
        if rt.rx.is_none() {
            let (tx, rx) =
                build_transport(&self.cfg, FlowId(f), rt.spec.bytes, self.base_rtt, self.bdp);
            rt.run = Some(Box::new(Running::new(tx)));
            rt.rx = Some(rx);
        }
    }

    /// Flow `f` is done and no timer of it is armed: drop its running state
    /// and consume its sender into its counters. Nothing can observe the
    /// difference. A timer pop still queued for the flow finds no box and is
    /// stale, as the generation check would have ruled, with no parked
    /// deadline to re-arm (`fire_timer`); a loss of one of its frames is
    /// never read, since only a live RTO reads the ring; and a late ACK, NACK
    /// or CNP would find a done sender, which is inert (the [`FlowSender`]
    /// contract), so `deliver` skips the call.
    pub(super) fn fold_sender(&mut self, f: u32) {
        #[cfg(test)]
        if self.eager {
            return;
        }
        if let Some(run) = self.flows[f as usize].run.take() {
            assert!(
                !run.timer_armed.contains(&true),
                "flow {f} folded with a timer armed"
            );
            self.counters[f as usize] = run.tx.into_stats();
        }
    }

    /// Builds every flow's receiver and running state now and never folds
    /// one: the reference side of `transport_lifetime_matches_eager`.
    #[cfg(test)]
    fn eager_transports(&mut self) {
        self.eager = true;
        for f in 0..self.flows.len() {
            self.build_pair(f as u32);
        }
    }
}

/// Instantiates the sender/receiver pair for one flow.
fn build_transport(
    cfg: &SimConfig,
    flow: FlowId,
    bytes: u64,
    base_rtt: SimTime,
    bdp: u64,
) -> (Box<dyn FlowSender>, Box<dyn FlowReceiver>) {
    let tlt_on = cfg.tlt.is_some();
    match cfg.transport {
        TransportKind::Tcp | TransportKind::Dctcp | TransportKind::Hpcc => {
            let mut w = WindowCfg::new(flow, bytes);
            w.mss = cfg.mss;
            w.init_cwnd_pkts = cfg.init_cwnd_pkts;
            w.rto = cfg.rto;
            w.tlp = cfg.tlp;
            w.ecn_capable = cfg.transport == TransportKind::Dctcp;
            w.collect_delivery = cfg.collect_delivery;
            if let Some(t) = cfg.tlt {
                w.tlt = TltMode::Window(WindowTltConfig {
                    clocking: t.clocking,
                });
            }
            let rx = Box::new(TcpReceiver::new(flow, bytes, tlt_on, 8));
            let tx: Box<dyn FlowSender> = match cfg.transport {
                TransportKind::Tcp => Box::new(WindowSender::new(
                    w.clone(),
                    NewReno::new(w.mss, w.init_cwnd_pkts),
                )),
                TransportKind::Dctcp => Box::new(WindowSender::new(
                    w.clone(),
                    Dctcp::new(w.mss, w.init_cwnd_pkts),
                )),
                TransportKind::Hpcc => Box::new(WindowSender::new(
                    w.clone(),
                    Hpcc::new(w.mss, base_rtt, bdp),
                )),
                _ => unreachable!(),
            };
            (tx, rx)
        }
        TransportKind::DcqcnGbn | TransportKind::DcqcnSack | TransportKind::DcqcnIrn => {
            let recovery = match cfg.transport {
                TransportKind::DcqcnGbn => RoceRecovery::GoBackN,
                TransportKind::DcqcnSack => RoceRecovery::Selective { window_cap: None },
                _ => RoceRecovery::Selective {
                    window_cap: Some(bdp),
                },
            };
            let mut r = RoceCfg::new(flow, bytes, recovery);
            r.mss = cfg.mss;
            if cfg.transport == TransportKind::DcqcnIrn {
                // IRN's recommended RTO_high (base latency + max one-hop
                // queueing) and RTO_low for small in-flight counts. The IRN
                // paper uses RTO_low = 100 us; our shared-buffer queues can
                // delay ACKs past that even for important packets, so we
                // calibrate RTO_low to the color-threshold draining time
                // (200 kB + important headroom at 40 Gbps ~ 250 us) to keep
                // it aggressive without being dominated by spurious firing.
                r.rto_high = SimTime::from_us(1930);
                r.rto_low = Some((SimTime::from_us(300), 3));
            }
            if let Some(t) = cfg.tlt {
                let every_n = if cfg.transport == TransportKind::DcqcnGbn {
                    t.every_n
                } else {
                    // Selective recovery detects losses via SACK; periodic
                    // marking is unnecessary (§5.2 note 2).
                    None
                };
                r.tlt = TltMode::Rate(RateTltConfig { every_n });
            }
            let selective = !matches!(recovery, RoceRecovery::GoBackN);
            let rx = Box::new(RoceReceiver::new(flow, bytes, selective, tlt_on));
            (Box::new(RoceSender::new(r)), rx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::small_single_switch;
    use crate::engine::drawn::{any_pair, assert_same_run, drawn_flows, fabric_cell};
    use eventsim::SimRng;
    use netsim::topology::TopologySpec;
    use telemetry::BufferSink;

    const TRANSPORTS: [TransportKind; 6] = [
        TransportKind::Tcp,
        TransportKind::Dctcp,
        TransportKind::DcqcnGbn,
        TransportKind::DcqcnSack,
        TransportKind::DcqcnIrn,
        TransportKind::Hpcc,
    ];

    fn family(kind: TransportKind) -> SimConfig {
        if kind.is_roce() {
            SimConfig::roce_family(kind)
        } else {
            SimConfig::tcp_family(kind)
        }
    }

    /// One traced run, with transports built at `FlowStart` and folded at
    /// done, or (`eager`) all built in `try_new` and never folded.
    fn run(cfg: &SimConfig, flows: &[FlowSpec], eager: bool) -> (SimResult, Vec<u8>) {
        let mut eng = Engine::new(cfg.clone(), flows.to_vec());
        if eager {
            eng.eager_transports();
        }
        let (tracer, sink) = Tracer::new(BufferSink::new());
        eng.set_tracer(tracer);
        let res = eng.run();
        let trace = sink.borrow_mut().take_bytes();
        (res, trace)
    }

    /// Every transport, TLT drawn for each, on one drawn short-flow incast
    /// into a tight single-switch buffer: drops and retransmissions, some of
    /// them spurious, so ACKs and duplicate data can reach a done flow.
    fn every_transport(rng: &mut SimRng) -> Vec<(SimConfig, Vec<FlowSpec>)> {
        let seed = rng.gen_u64();
        let buffer = rng.gen_range_u64(150_000..400_000);
        let n = rng.gen_range_usize(12..25);
        let flows = drawn_flows(rng, n, 5, 10, |rng| (1 + rng.gen_range_usize(0..8), 0));
        TRANSPORTS
            .map(|kind| {
                let mut cfg = family(kind)
                    .with_topology(small_single_switch(9))
                    .with_seed(seed);
                cfg.switch.buffer_bytes = buffer;
                cfg.tlp = rng.gen_bool(0.5);
                cfg.collect_delivery = rng.gen_bool(0.5);
                if rng.gen_bool(0.5) {
                    cfg = cfg.with_tlt();
                    cfg.switch.color_threshold = Some(buffer / 3);
                }
                (cfg, flows.clone())
            })
            .into()
    }

    /// Serve-style request chains on a k=4 fat-tree: each request sends a
    /// query to one to four servers, and each answer is a flow released by
    /// its query's completion, half of them with no think time.
    fn serve_chains(rng: &mut SimRng) -> (SimConfig, Vec<FlowSpec>) {
        let kind = [TransportKind::Dctcp, TransportKind::DcqcnIrn][rng.gen_range_usize(0..2)];
        let latency = SimTime::from_us(if kind.is_roce() { 1 } else { 10 });
        let mut cfg = family(kind)
            .with_topology(TopologySpec::paper_fat_tree(4, latency))
            .with_seed(rng.gen_u64());
        if rng.gen_bool(0.5) {
            cfg = cfg.with_tlt();
        }
        let mut flows = Vec::new();
        let mut arrival = 0;
        for _ in 0..rng.gen_range_usize(6..16) {
            arrival += rng.gen_range_u64(0..20_000);
            let client = rng.gen_range_usize(0..16);
            let mut servers: Vec<usize> = Vec::new();
            while servers.len() < rng.gen_range_usize(1..5) {
                let (_, s) = any_pair(rng, 16);
                if s != client && !servers.contains(&s) {
                    servers.push(s);
                }
            }
            for s in servers {
                let q = flows.len() as u32;
                let at = SimTime::from_ns(arrival);
                flows.push(FlowSpec::new(client, s, 1_600, at, true));
                let think = match rng.gen_bool(0.5) {
                    true => SimTime::ZERO,
                    false => SimTime::from_ns(rng.gen_range_u64(1..20_000)),
                };
                let bytes = 2_000 << rng.gen_range_u64(0..7);
                flows.push(FlowSpec::new(s, client, bytes, think, true).after(q));
            }
        }
        (cfg, flows)
    }

    /// A leaf–spine cell cut by `max_time` while some flows run and others
    /// (including chained ones) have not started.
    fn cut(rng: &mut SimRng) -> (SimConfig, Vec<FlowSpec>) {
        let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_seed(rng.gen_u64());
        cfg.max_time = SimTime::from_us(rng.gen_range_u64(100..250));
        let n = rng.gen_range_usize(10..30);
        let mut flows = drawn_flows(rng, n, 9, 300, |rng| any_pair(rng, 96));
        let parent = rng.gen_range_usize(0..n) as u32;
        flows.push(FlowSpec::new(1, 2, 50_000, SimTime::from_us(3), true).after(parent));
        (cfg, flows)
    }

    /// The drawn cells of kind `kind % 7`: the three above, then the four
    /// fabric cells of the route-table differential.
    fn cells(kind: usize, rng: &mut SimRng) -> Vec<(SimConfig, Vec<FlowSpec>)> {
        match kind % 7 {
            0 => every_transport(rng),
            1 => vec![serve_chains(rng)],
            2 => vec![cut(rng)],
            k => vec![fabric_cell(k - 3, rng)],
        }
    }

    /// The record every flow pays for from `try_new` to the end of the run
    /// keeps only what outlives the flow (136 bytes with the ledger off);
    /// the sender, timer slots and loss ring are the 304-byte [`Running`]
    /// box, which exists only between a flow's `FlowStart` and its fold.
    #[test]
    fn the_record_keeps_only_what_outlives_the_flow() {
        if std::mem::size_of::<FlowSlot>() == 0 {
            assert_eq!(std::mem::size_of::<FlowRuntime>(), 136);
        }
        assert_eq!(std::mem::size_of::<Running>(), 304);
    }

    /// A `Timer` entry still queued for a folded flow pops as stale:
    /// `fire_timer` returns `false` and moves nothing but the profiler's
    /// stale-pop tally, and the run's event accounting still closes
    /// (`executed + cancelled == scheduled`).
    #[test]
    fn a_folded_flows_queued_timer_pops_as_stale() {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(2));
        let flows = vec![FlowSpec::new(0, 1, 1_000_000, SimTime::ZERO, true)];
        let mut eng = Engine::new(cfg, flows);
        // The run loop's `FlowStart` arm, minus the sends: only the timers
        // the sender arms reach the queue.
        let (t, ev) = eng.queue.pop().expect("the FlowStart");
        assert!(matches!(ev, Event::FlowStart(0)));
        eng.now = t;
        eng.flows[0].lg.begin(t.as_ns());
        eng.start_transport(0);
        eng.actions.retain(|a| !matches!(a, Action::Send(_)));
        eng.flush_actions(0);
        eng.prof
            .on_pop(EvKind::FlowStart, t, 0, eng.queue.len() as u64);
        // `check_done!`'s two steps.
        eng.disarm_timers(0);
        eng.fold_sender(0);
        assert!(eng.flows[0].run.is_none());

        let (at, ev) = eng.queue.pop().expect("a timer the sender armed");
        let Event::Timer { flow, kind, gen } = ev else {
            panic!("expected a Timer");
        };
        assert_eq!(flow, 0);
        let state = |eng: &Engine| {
            (
                eng.queue.seq_total(),
                eng.queue.scheduled_total(),
                eng.queue.len(),
                format!("{:?}", eng.counters[0]),
                eng.forensics.len(),
                eng.rto_causes.total(),
                eng.flows[0].tx_epoch,
                eng.actions.len(),
            )
        };
        let before = state(&eng);
        eng.now = at;
        assert!(
            !eng.fire_timer(flow, kind, gen),
            "a folded flow's timer is stale"
        );
        eng.prof
            .on_pop(EvKind::Timer, at, 0, eng.queue.len() as u64);
        assert_eq!(state(&eng), before);
        assert!(eng.flows[0].run.is_none(), "a stale pop builds nothing");

        let res = eng.collect(Samples::new());
        assert_eq!(res.agg.timers_leaked, 0);
        if let Some(p) = res.profile {
            let r = &p.reg;
            assert_eq!(r.counter("event_stale/timer"), 1);
            assert_eq!(r.counter("event_exec/timer"), 0);
            assert_eq!(
                r.counter("events_executed_total") + r.counter("events_cancelled_total"),
                r.counter("events_scheduled_total")
            );
        }
    }

    /// Lifetime ≡ eager. The same drawn cell runs with each transport built
    /// at its `FlowStart` and folded once done, and with every pair built in
    /// `try_new` and never folded (the engine before this lifetime): every
    /// flow record, every forensic record, the whole aggregate (samples
    /// included) and the trace, byte for byte, must agree. A few cells under
    /// `debug_assertions`, a few hundred in a release test run (CI).
    #[test]
    fn transport_lifetime_matches_eager() {
        let cases = if cfg!(debug_assertions) { 8 } else { 400 };
        let mut rng = SimRng::seed_from(0x11FE_717E);
        let (mut unstarted, mut cut_off, mut timeouts, mut reroutes) = (0, 0, 0, 0);
        for case in 0..cases {
            for (i, (cfg, flows)) in cells(case, &mut rng).into_iter().enumerate() {
                let (lazy, lazy_trace) = run(&cfg, &flows, false);
                let (eager, eager_trace) = run(&cfg, &flows, true);
                let label = format!("case {case} (kind {}) config {i}", case % 7);
                assert_same_run(&label, &lazy, &eager);
                assert!(lazy_trace == eager_trace, "{label}: trace bytes");
                assert!(lazy.agg.data_pkts_sent > 0, "{label}: ran");
                assert_eq!(lazy.agg.timers_leaked, 0, "{label}");
                // Unfinished flows with an absolute start: cut off while
                // running, or never started.
                let end = lazy.agg.duration;
                for (f, _) in lazy
                    .flows
                    .iter()
                    .zip(&flows)
                    .filter(|(f, spec)| f.end.is_none() && spec.after.is_none())
                {
                    if f.start > end {
                        unstarted += 1;
                    } else {
                        cut_off += 1;
                    }
                }
                timeouts += lazy.agg.timeouts;
                reroutes += lazy.agg.reroutes;
            }
        }
        // The cells do what they are there for.
        assert!(
            unstarted > 0 && cut_off > 0,
            "{unstarted} unstarted, {cut_off} cut off"
        );
        assert!(
            timeouts > 0 && reroutes > 0,
            "{timeouts} RTOs, {reroutes} re-pins"
        );
    }
}
