//! Results: what a run returns and how `collect` seals it.

use super::*;

/// Aggregate counters of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct AggregateStats {
    /// Retransmission timeouts summed over all flows.
    pub timeouts: u64,
    /// Fast (and NACK/go-back-N) retransmissions summed over all flows.
    pub fast_retx: u64,
    /// Data packets sent by all flows.
    pub data_pkts_sent: u64,
    /// Data packets marked important.
    pub important_pkts: u64,
    /// Data packets left unimportant.
    pub unimportant_pkts: u64,
    /// Important ACK-clocking packets / bytes.
    pub clocking_pkts: u64,
    /// Payload bytes injected by important ACK-clocking (Figure 17b).
    pub clocking_bytes: u64,
    /// Red packets proactively dropped at the color threshold.
    pub drops_color: u64,
    /// Congestion (dynamic-threshold) drops.
    pub drops_dt: u64,
    /// Buffer-exhaustion drops.
    pub drops_overflow: u64,
    /// Important (green) data packets dropped (Table 1 numerator).
    pub drops_green_data: u64,
    /// Green data packets admitted (Table 1 denominator).
    pub green_data_pkts: u64,
    /// Packets CE-marked by switches.
    pub ce_marked: u64,
    /// PFC PAUSE frames emitted by switches (Figure 7b).
    pub pause_frames: u64,
    /// Mean fraction of time an egress link spent paused (Figure 7c),
    /// averaged over links that were paused at least once.
    pub link_pause_fraction: f64,
    /// Largest single egress queue observed anywhere (Figure 11b).
    pub max_queue_bytes: u64,
    /// Periodic samples of the deepest egress queue (Figure 11b median).
    pub queue_samples: Samples,
    /// RTT samples pooled across foreground flows (Figure 1).
    pub fg_rtt: Samples,
    /// RTT samples pooled across background flows (Figure 1).
    pub bg_rtt: Samples,
    /// Per-flow maximum estimated RTO, foreground (Figure 1).
    pub fg_rto: Samples,
    /// Per-flow maximum estimated RTO, background (Figure 1).
    pub bg_rto: Samples,
    /// Segment delivery times (Figure 16), when collection was enabled.
    pub delivery: Samples,
    /// Packets lost to injected wire corruption (non-congestion losses).
    pub wire_drops: u64,
    /// Frames destroyed on downed links: serialized onto a dead wire,
    /// caught in flight when the link failed, or orphaned by a reroute.
    pub down_drops: u64,
    /// Fault-schedule events applied.
    pub faults_injected: u64,
    /// Time the first fault fired ([`SimTime::ZERO`] when none did) — the
    /// origin for recovery-time measurements.
    pub first_fault_at: SimTime,
    /// Flows successfully re-pinned onto a fully-up ECMP path after a
    /// `LinkDown { reroute_after: Some(_) }`.
    pub reroutes: u64,
    /// Timers still armed on *completed* flows when the run ended. The
    /// engine disarms on completion, so nonzero means a bookkeeping leak.
    pub timers_leaked: u64,
    /// Wall time the simulation covered.
    pub duration: SimTime,
    /// Total simulator events scheduled (the engine's unit of work, for
    /// events/sec throughput reporting).
    pub events_scheduled: u64,
    /// Per-root-cause attribution of the timeouts above, from the RTO
    /// forensics pass (`rto_causes.total() == timeouts` when every firing
    /// was observed by the engine).
    pub rto_causes: RtoCauseCounts,
}

impl AggregateStats {
    /// Loss rate of important (green) data packets at switches (Table 1).
    pub fn important_loss_rate(&self) -> f64 {
        let denom = self.green_data_pkts + self.drops_green_data;
        if denom == 0 {
            0.0
        } else {
            self.drops_green_data as f64 / denom as f64
        }
    }

    /// Fraction of data packets marked important (Figures 10, 11a).
    pub fn important_fraction(&self) -> f64 {
        let total = self.important_pkts + self.unimportant_pkts;
        if total == 0 {
            0.0
        } else {
            self.important_pkts as f64 / total as f64
        }
    }
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Per-flow records (same order as the input specs).
    pub flows: Vec<FlowRecord>,
    /// Aggregate counters.
    pub agg: AggregateStats,
    /// Per-RTO forensic records, in firing order.
    pub forensics: Vec<RtoForensicRec>,
    /// The metrics registry, populated when [`Engine::set_metrics`] was
    /// called before the run (`None` otherwise).
    pub metrics: Option<Registry>,
    /// The engine profile (per-event-kind tallies, queue health, sim-time
    /// series), populated when [`Engine::set_profile`] was called before
    /// the run (`None` otherwise).
    pub profile: Option<telemetry::Artifact>,
    /// Per-flow latency ledgers: the closed per-phase time decomposition
    /// (`Σ phases == FCT` for completed flows), populated when
    /// [`Engine::set_ledger`] was called before the run (`None` otherwise).
    pub ledger: Option<Vec<crate::latency::FlowLedgerRecord>>,
}

impl Engine {
    pub(super) fn collect(mut self, queue_samples: Samples) -> SimResult {
        // Close out pause accounting.
        let end = self.now;
        let mut pause_fracs = Vec::new();
        for (i, (ps, acct)) in self.ports.iter_mut().zip(&mut self.pause_acct).enumerate() {
            if ps.paused {
                let d = end - acct.paused_since;
                acct.paused_total += d;
                ps.paused = false;
                // A port still paused at the end is a truncated episode;
                // its duration-so-far still belongs in the histogram.
                if let Some(m) = self.metrics.as_mut() {
                    m.on_pause_end(i, d.as_ns());
                }
            }
            if acct.ever_paused && end > SimTime::ZERO {
                pause_fracs.push(acct.paused_total.as_secs_f64() / end.as_secs_f64());
            }
        }

        let mut agg = AggregateStats {
            duration: end,
            // Logical events: one per schedule call *or* timer-arm seq
            // reservation — identical whether a superseded timer's queue
            // entry materialized or not, so figures and metrics match the
            // eager-push engine byte for byte.
            events_scheduled: self.queue.seq_total(),
            wire_drops: self.faults.wire_drops,
            down_drops: self.faults.down_drops,
            faults_injected: self.faults_injected,
            first_fault_at: self.first_fault_at.unwrap_or(SimTime::ZERO),
            reroutes: self.reroutes,
            rto_causes: self.rto_causes,
            queue_samples,
            link_pause_fraction: if pause_fracs.is_empty() {
                0.0
            } else {
                pause_fracs.iter().sum::<f64>() / pause_fracs.len() as f64
            },
            ..AggregateStats::default()
        };
        for sw in &self.switches {
            let s = sw.stats();
            agg.drops_color += s.drops_color;
            agg.drops_dt += s.drops_dt;
            agg.drops_overflow += s.drops_overflow;
            agg.drops_green_data += s.drops_green_data;
            agg.green_data_pkts += s.green_data_pkts;
            agg.ce_marked += s.ce_marked;
            agg.pause_frames += s.pauses_sent;
            agg.max_queue_bytes = agg.max_queue_bytes.max(s.max_queue_bytes);
        }

        // Nothing below reads the fabric or a receiver: free them before
        // the results are built, so the run's peak heap is the larger of the
        // two, not their sum. `port_base` stays for `PortMetrics::publish`,
        // the queue for `prof.seal`.
        self.switches = Vec::new();
        self.ports = Vec::new();
        self.pause_acct = Vec::new();
        self.host_q = Vec::new();
        self.pkts = PacketSlab::new();
        self.routes = Vec::new();
        for rt in &mut self.flows {
            rt.rx = None;
        }

        let mut flows = Vec::with_capacity(self.flows.len());
        for (i, rt) in self.flows.iter().enumerate() {
            if rt.is_done() {
                // Completion disarms every slot; anything still armed is a
                // leak (and would have kept the event loop busy). A folded
                // flow has no slots left.
                let armed = rt
                    .run
                    .as_ref()
                    .map_or(0, |run| run.timer_armed.iter().filter(|a| **a).count());
                agg.timers_leaked += armed as u64;
            }
            let st = self.sender_stats(i as u32);
            agg.timeouts += st.timeouts;
            agg.fast_retx += st.fast_retx;
            agg.data_pkts_sent += st.data_pkts_sent;
            agg.important_pkts += st.important_pkts;
            agg.unimportant_pkts += st.unimportant_pkts;
            agg.clocking_pkts += st.clocking_pkts;
            agg.clocking_bytes += st.clocking_bytes;
            let spec = &self.specs[i];
            let (rtt, rto) = if spec.fg {
                (&mut agg.fg_rtt, &mut agg.fg_rto)
            } else {
                (&mut agg.bg_rtt, &mut agg.bg_rto)
            };
            for s in &st.rtt_samples {
                rtt.push(s.as_secs_f64());
            }
            if st.rto_max > SimTime::ZERO {
                rto.push(st.rto_max.as_secs_f64());
            }
            for d in &st.delivery_samples {
                agg.delivery.push(d.as_secs_f64());
            }
            flows.push(FlowRecord {
                id: i as u32,
                src: rt.src.0,
                dst: rt.dst.0,
                bytes: spec.bytes,
                start: spec.start,
                end: rt.complete_at,
                fg: spec.fg,
                timeouts: st.timeouts,
                retx: st.fast_retx + st.rto_retx,
            });
        }
        self.ledger.audit_final(&agg);

        // Seal the latency ledgers (each audits Σ phases == FCT as it
        // seals); there are none unless the ledger was attached.
        let ledger = self.latency.take().map(|lgs| {
            let ends = self
                .flows
                .iter()
                .map(|rt| rt.complete_at.map(|t| t.as_ns()));
            let flows = lgs.iter().zip(ends).enumerate();
            flows
                .map(|(i, (lg, end))| lg.record(i as u32, end))
                .collect()
        });

        // Seal the metrics registry with the end-of-run counters. Every
        // name is always written (even at zero) so the exported schema is
        // identical across runs and configurations.
        let metrics = self.metrics.take().map(|m| {
            let mut r = Registry::new();
            m.publish(&self.port_base, &mut r);
            for (cause, n) in agg.rto_causes.iter() {
                r.inc(&format!("rto_cause_{}", cause.as_str()), n);
            }
            r.inc("timeouts", agg.timeouts);
            r.inc("fast_retx", agg.fast_retx);
            r.inc("data_pkts_sent", agg.data_pkts_sent);
            r.inc("tlt_important_pkts", agg.important_pkts);
            r.inc("tlt_unimportant_pkts", agg.unimportant_pkts);
            r.inc("tlt_clocking_pkts", agg.clocking_pkts);
            r.inc("tlt_clocking_bytes", agg.clocking_bytes);
            r.inc("ce_marked", agg.ce_marked);
            r.inc("pause_frames", agg.pause_frames);
            r.inc("drops_color", agg.drops_color);
            r.inc("drops_dt", agg.drops_dt);
            r.inc("drops_overflow", agg.drops_overflow);
            r.inc("drops_wire", agg.wire_drops);
            r.inc("drops_down", agg.down_drops);
            r.inc("events_scheduled", agg.events_scheduled);
            r.gauge_max("max_queue_bytes", agg.max_queue_bytes);
            r
        });
        // Seal the profiler, which drains what is still queued.
        let profile = self
            .prof
            .take()
            .map(|mut p| p.seal(&mut self.queue, Event::kind));
        let forensics = std::mem::take(&mut self.forensics);
        SimResult {
            flows,
            agg,
            forensics,
            metrics,
            profile,
            ledger,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::small_single_switch;
    use telemetry::BufferSink;

    /// 96 synchronized 8 kB DCTCP flows from 48 hosts into one, against an
    /// 800 kB buffer: drops, fast retransmits and RTOs.
    fn incast() -> (SimConfig, Vec<FlowSpec>) {
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(49));
        cfg.switch.buffer_bytes = 800_000;
        cfg.switch.ecn = netsim::switch::EcnConfig::Threshold { k: 100_000 };
        let flows = (1..49)
            .flat_map(|s| [FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true); 2])
            .collect();
        (cfg, flows)
    }

    /// A run with the profiler and the latency ledger attached.
    fn observed(cfg: SimConfig, flows: Vec<FlowSpec>) -> SimResult {
        let mut eng = Engine::new(cfg, flows);
        eng.set_profile();
        eng.set_ledger();
        eng.run()
    }

    /// The observers report exactly when attached, and attaching them
    /// moves nothing else: the flow records, the aggregate and the trace
    /// bytes of a traced incast that times out are the unobserved run's.
    #[test]
    fn observers_report_when_attached_and_change_nothing_else() {
        let run = |observe: bool| {
            let (mut cfg, flows) = incast();
            cfg.trace_sample_every = Some(SimTime::from_us(20));
            let mut eng = Engine::new(cfg, flows);
            let (tracer, sink) = Tracer::new(BufferSink::new());
            eng.set_tracer(tracer);
            if observe {
                eng.set_profile();
                eng.set_ledger();
            }
            let res = eng.run();
            let bytes = sink.borrow_mut().take_bytes();
            (res, bytes)
        };
        let (plain, plain_trace) = run(false);
        assert_eq!(plain.profile.is_some(), crate::profile::ATTACH_ALWAYS);
        assert!(plain.ledger.is_none());
        assert!(plain.agg.timeouts > 0, "the incast times out");
        let (seen, seen_trace) = run(true);
        assert!(seen.profile.is_some());
        assert_eq!(seen.ledger.as_ref().map(Vec::len), Some(96), "one per flow");
        assert_eq!(format!("{:?}", plain.flows), format!("{:?}", seen.flows));
        assert_eq!(format!("{:?}", plain.agg), format!("{:?}", seen.agg));
        assert!(plain_trace == seen_trace, "attaching moved a trace byte");
    }

    /// Every scheduled event must be accounted as executed, stale, or
    /// unpopped, with the component split covering every pop — exercised
    /// on an incast with timers, PFC, and sampling all active, and on a
    /// multi-hop fat-tree run where most `TxDone`s are never pushed.
    #[test]
    fn profile_accounts_every_scheduled_event() {
        let incast = || {
            let mut cfg =
                SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(9));
            cfg.switch.buffer_bytes = 100_000;
            cfg.queue_sample_every = Some(SimTime::from_us(10));
            let flows: Vec<FlowSpec> = (1..9)
                .map(|s| FlowSpec::new(s, 0, 60_000, SimTime::ZERO, true))
                .collect();
            observed(cfg, flows)
        };
        // Eight cross-pod flows over six-hop routes on a k=4 fat-tree.
        let multi_hop = || {
            let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(
                netsim::topology::TopologySpec::paper_fat_tree(4, SimTime::from_us(10)),
            );
            let flows: Vec<FlowSpec> = (0..8)
                .map(|s| FlowSpec::new(s, 15 - s, 60_000, SimTime::from_us(s as u64), true))
                .collect();
            observed(cfg, flows)
        };
        let audit = |res: &SimResult| {
            let p = res.profile.as_ref().expect("the profiler is attached");
            let r = &p.reg;
            let sched = r.counter("events_scheduled_total");
            // `agg.events_scheduled` counts logical events (every timer arm
            // and every transmission reserves a seq, pushed or not); the
            // profiler counts actual queue pushes, so it reads lower
            // whenever laziness saved churn.
            assert!(
                sched < res.agg.events_scheduled,
                "no push was saved: {sched} vs {}",
                res.agg.events_scheduled
            );
            assert_eq!(
                r.counter("events_executed_total") + r.counter("events_cancelled_total"),
                sched
            );
            let kind_sched: u64 = crate::profile::EvKind::ALL
                .iter()
                .map(|k| r.counter(&format!("event_sched/{}", k.name())))
                .sum();
            assert_eq!(kind_sched, sched);
            assert_eq!(r.counter("event_sched/flow_start"), 8);
            assert_eq!(r.counter("event_exec/flow_start"), 8);
            // Lazy TxDone: one is pushed only when a frame queues up behind
            // another, so pushes trail the frames delivered, and each push
            // is popped or left behind — never lost.
            assert!(r.counter("event_sched/tx_done") < r.counter("event_exec/deliver"));
            assert_eq!(
                r.counter("event_sched/tx_done"),
                r.counter("event_exec/tx_done") + r.counter("event_unpopped/tx_done")
            );
            // Component attribution covers every executed-or-stale pop.
            let comp: u64 = ["switch", "link", "transport", "timer", "fault", "sampler"]
                .iter()
                .map(|c| r.counter(&format!("component_exec/{c}")))
                .sum();
            let popped = r.counter("events_executed_total") + {
                crate::profile::EvKind::ALL
                    .iter()
                    .map(|k| r.counter(&format!("event_stale/{}", k.name())))
                    .sum::<u64>()
            };
            assert_eq!(comp, popped);
            assert!(r.gauge("queue_peak_depth") > 0);
            assert_eq!(r.counter("queue_pushes"), sched);
            // The events series saw exactly the popped (executed + stale) events.
            assert_eq!(p.series_get("events").unwrap().total_count(), popped);
            assert!(p.series_get("inflight_pkts").unwrap().total_count() > 0);
        };
        let res = incast();
        audit(&res);
        let hops = multi_hop();
        assert!(hops.flows.iter().all(|f| f.end.is_some()));
        audit(&hops);
        // Determinism: a second identical run serializes byte-identically.
        let again = incast();
        assert_eq!(
            res.profile.as_ref().unwrap().to_json(),
            again.profile.as_ref().unwrap().to_json()
        );
    }

    #[test]
    fn metrics_registry_captures_queue_and_rto_counters() {
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(9));
        cfg.switch.buffer_bytes = 100_000;
        let flows: Vec<FlowSpec> = (1..9)
            .map(|s| FlowSpec::new(s, 0, 64_000, SimTime::ZERO, true))
            .collect();
        let mut eng = Engine::new(cfg, flows);
        eng.set_metrics();
        let res = eng.run();
        let reg = res.metrics.as_ref().expect("metrics enabled");
        // End-of-run counters mirror the aggregates.
        assert_eq!(reg.counter("timeouts"), res.agg.timeouts);
        assert_eq!(reg.counter("data_pkts_sent"), res.agg.data_pkts_sent);
        assert_eq!(reg.counter("drops_dt"), res.agg.drops_dt);
        let cause_sum: u64 = RtoCause::ALL
            .iter()
            .map(|c| reg.counter(&format!("rto_cause_{}", c.as_str())))
            .sum();
        assert_eq!(cause_sum, res.agg.timeouts, "metrics attribute every RTO");
        // The bottleneck egress (switch node 0, port 0) saw real occupancy.
        let q = reg.hist("port_queue_bytes/n0/p0").expect("queue histogram");
        assert!(q.max() > 0, "bottleneck queue never observed");
        assert_eq!(
            reg.gauge("port_queue_max/n0/p0"),
            q.max(),
            "watermark gauge matches histogram max"
        );
        // A run without metrics enabled carries none.
        assert!(Engine::new(
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(2)),
            vec![FlowSpec::new(0, 1, 10_000, SimTime::ZERO, true)],
        )
        .run()
        .metrics
        .is_none());
    }

    /// The tentpole invariant, exercised end-to-end: across transports,
    /// TLT on/off, PFC, incast drops/RTOs, corruption, flaps, and pause
    /// storms, every completed flow's ledger must close exactly
    /// (`Σ phases == FCT`, zero unattributed time) and incomplete flows
    /// must carry no completion record.
    #[test]
    fn latency_ledger_closes_over_the_fault_grid() {
        use telemetry::Phase;
        let audit = |res: &SimResult, label: &str| {
            let recs = res.ledger.as_ref().expect("the ledger is attached");
            assert_eq!(recs.len(), res.flows.len(), "{label}: one ledger per flow");
            for (rec, fr) in recs.iter().zip(res.flows.iter()) {
                assert_eq!(rec.end_ns, fr.end.map(|t| t.as_ns()), "{label}: end");
                match rec.residue() {
                    Some(r) => assert_eq!(
                        r,
                        0,
                        "{label}: flow {} residue {r} (phases {:?}, fct {:?})",
                        rec.flow,
                        rec.phases,
                        rec.fct_ns()
                    ),
                    None => assert!(fr.end.is_none(), "{label}: missing fct"),
                }
            }
        };

        // Incast overflow: drops, fast retx, and RTO stalls all present.
        let (cfg, flows) = incast();
        let res = observed(cfg, flows);
        assert!(res.agg.timeouts > 0, "incast must exercise the RTO phase");
        audit(&res, "incast");
        let recs = res.ledger.as_ref().unwrap();
        assert!(
            recs.iter().any(|r| r.phases.get(Phase::RtoStall) > 0),
            "some flow spent time in RTO stall"
        );
        assert!(
            recs.iter()
                .any(|r| r.stalls.iter().any(|s| s.phase == Phase::RtoStall)),
            "stall intervals retained for span trees"
        );

        // PFC pause pressure: the pause phase must both appear and conserve.
        let mut cfg = SimConfig::roce_family(TransportKind::DcqcnGbn)
            .with_topology(small_single_switch(5))
            .with_pfc();
        cfg.switch.buffer_bytes = 200_000;
        let flows: Vec<FlowSpec> = (1..5)
            .map(|s| FlowSpec::new(s, 0, 500_000, SimTime::ZERO, true))
            .collect();
        let res = observed(cfg, flows);
        assert!(res.agg.pause_frames > 0, "PFC actually engaged");
        audit(&res, "pfc");
        assert!(
            res.ledger
                .as_ref()
                .unwrap()
                .iter()
                .any(|r| r.phases.get(Phase::PfcPause) > 0),
            "pause time attributed"
        );

        // Fault schedule: corruption + a flap + a pause storm + truncation.
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(4));
        cfg.max_time = SimTime::from_ms(50);
        cfg.wire_loss_rate = 0.005;
        cfg.faults = faults::FaultSchedule::new()
            .link_flap(SimTime::from_us(200), 2, 0, SimTime::from_us(5))
            .pause_storm(SimTime::from_us(400), 0, 1, SimTime::from_us(200))
            // Host index 2 is node 3: flow index 1 is severed mid-transfer.
            .link_down(SimTime::from_us(100), 3, 0);
        let flows = vec![
            FlowSpec::new(1, 0, 300_000, SimTime::ZERO, true),
            FlowSpec::new(2, 0, 300_000, SimTime::ZERO, true),
            FlowSpec::new(3, 0, 300_000, SimTime::ZERO, true),
        ];
        let res = observed(cfg, flows);
        assert!(res.flows[1].end.is_none(), "severed flow truncated");
        audit(&res, "faults");

        // Dependent chains: rewritten start times stay conserved too.
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
        let flows = vec![
            FlowSpec::new(0, 1, 50_000, SimTime::ZERO, true),
            FlowSpec::new(1, 0, 100_000, SimTime::from_us(10), true).after(0),
        ];
        let res = observed(cfg, flows);
        audit(&res, "deps");
        let recs = res.ledger.as_ref().unwrap();
        assert_eq!(
            recs[1].start_ns,
            res.flows[1].start.as_ns(),
            "dependent ledger opens at the rewritten absolute start"
        );
    }

    /// Determinism of the ledger itself: identical runs produce identical
    /// phase decompositions and stall rings.
    #[test]
    fn latency_ledger_is_deterministic() {
        let mk = || {
            let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
                .with_topology(small_single_switch(9))
                .with_seed(7);
            cfg.switch.buffer_bytes = 100_000;
            let flows: Vec<FlowSpec> = (1..9)
                .map(|s| FlowSpec::new(s, 0, 60_000, SimTime::ZERO, true))
                .collect();
            observed(cfg, flows)
        };
        let (a, b) = (mk(), mk());
        let (la, lb) = (a.ledger.unwrap(), b.ledger.unwrap());
        assert_eq!(la.len(), lb.len());
        for (x, y) in la.iter().zip(lb.iter()) {
            assert_eq!(x.phases, y.phases);
            assert_eq!(x.stalls, y.stalls);
            assert_eq!(x.end_ns, y.end_ns);
        }
    }
}
