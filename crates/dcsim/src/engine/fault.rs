//! Fault application (link down/up, degrade, pause storms) and the ECMP
//! re-pin that follows a rerouted link-down.

use super::*;

impl Engine {
    /// Applies entry `i` of the fault schedule.
    pub(super) fn apply_fault(&mut self, i: usize) {
        let ev = self.cfg.faults.events()[i];
        self.faults_injected += 1;
        self.first_fault_at.get_or_insert(self.now);
        let (node, port) = (ev.node, ev.port);
        match ev.action {
            FaultAction::LinkDown { reroute_after } => {
                let (lid, _) = self.topo.link_from(node, port);
                self.faults.set_down(lid, true);
                self.faults.set_down(self.topo.reverse_link(lid), true);
                self.tracer.emit(self.now, || TraceEvent::Fault {
                    kind: FaultKind::LinkDown,
                    node: node.0,
                    port: port.0,
                });
                if let Some(d) = reroute_after {
                    self.queue.schedule(self.now + d, Event::Reroute);
                }
            }
            FaultAction::LinkUp => {
                let (lid, _) = self.topo.link_from(node, port);
                self.faults.set_down(lid, false);
                self.faults.set_down(self.topo.reverse_link(lid), false);
                self.tracer.emit(self.now, || TraceEvent::Fault {
                    kind: FaultKind::LinkUp,
                    node: node.0,
                    port: port.0,
                });
            }
            FaultAction::Degrade { loss, rate_factor } => {
                let (lid, _) = self.topo.link_from(node, port);
                self.faults.set_loss(lid, loss);
                self.faults.set_rate_factor(lid, rate_factor);
                // The port transmitting on this link re-prices its memoised
                // frame size at the new rate (`kick_port` reuses it).
                let i = self.port_index(node, port);
                let ps = &mut self.ports[i];
                ps.memo_tx = self.faults.tx_time(lid, &ps.spec, ps.memo_wire);
                self.tracer.emit(self.now, || TraceEvent::Fault {
                    kind: FaultKind::Degrade,
                    node: node.0,
                    port: port.0,
                });
            }
            FaultAction::PauseStorm { duration } => {
                self.tracer.emit(self.now, || TraceEvent::Fault {
                    kind: FaultKind::StormStart,
                    node: node.0,
                    port: port.0,
                });
                let now = self.now;
                let sw = &mut self.switches[node.0 as usize];
                if let Some(sig) = sw.storm_xoff(port, now) {
                    self.send_pfc(node, sig);
                }
                self.queue
                    .schedule(now + duration, Event::StormEnd { node, port });
            }
        }
    }

    /// The `StormEnd` arm: a pause storm against `node`'s ingress `port`
    /// ends.
    pub(super) fn storm_end(&mut self, node: NodeId, port: PortId) {
        let t = self.now;
        self.tracer.emit(t, || TraceEvent::Fault {
            kind: FaultKind::StormEnd,
            node: node.0,
            port: port.0,
        });
        let sw = &mut self.switches[node.0 as usize];
        if let Some(sig) = sw.storm_xon(port, t) {
            self.send_pfc(node, sig);
        }
    }

    /// Re-pins every live flow whose pinned path crosses a downed link onto
    /// a fully-up ECMP alternative (trying a bounded number of hash salts).
    pub(super) fn reroute_flows(&mut self) {
        if !self.faults.any_down() {
            return;
        }
        let up = |eng: &Engine, (fwd, rev): (PinnedPath, PinnedPath)| {
            fwd.iter()
                .chain(rev.iter())
                .all(|hop| !eng.faults.is_down(eng.topo.link_from(hop.node, hop.port).0))
        };
        for f in 0..self.flows.len() as u32 {
            if self.flows[f as usize].is_done() || up(self, self.paths(f)) {
                continue;
            }
            let current = self.flows[f as usize].repins;
            let mut ok = false;
            for bump in 1..=8 {
                self.flows[f as usize].repins = bump;
                if up(self, self.paths(f)) {
                    // Cleared, never rewritten: frames of this flow may
                    // still be in flight on the old path, and only the
                    // path walk tells them from frames on the new one.
                    self.routes[f as usize] = FlowRoute::default();
                    ok = true;
                    break;
                }
            }
            if ok {
                self.reroutes += 1;
            } else {
                self.flows[f as usize].repins = current;
            }
            self.tracer
                .emit(self.now, || TraceEvent::Reroute { flow: f, ok });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::small_single_switch;

    #[test]
    fn permanent_link_down_drains_without_wedging() {
        // A flow whose only path is severed can never finish; the run must
        // still drain (bounded by max_time), the victim must not wedge the
        // loop, and completed flows must not leak armed timers.
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(4));
        cfg.max_time = SimTime::from_ms(50);
        // Host index 2 is node 3 (switch is node 0); down its NIC link.
        cfg.faults = faults::FaultSchedule::new().link_down(SimTime::from_us(50), 3, 0);
        let flows = vec![
            FlowSpec::new(1, 0, 64_000, SimTime::ZERO, true),
            FlowSpec::new(2, 0, 64_000, SimTime::ZERO, true),
            FlowSpec::new(3, 0, 64_000, SimTime::ZERO, true),
        ];
        let res = Engine::new(cfg, flows).run();
        assert!(res.flows[1].end.is_none(), "severed flow cannot complete");
        assert!(res.flows[0].end.is_some(), "bystander flow completes");
        assert!(res.flows[2].end.is_some(), "bystander flow completes");
        assert!(res.agg.down_drops > 0, "frames died on the dead wire");
        assert!(res.agg.timeouts > 0, "the victim kept RTO-probing");
        assert_eq!(res.agg.timers_leaked, 0, "no armed timers on done flows");
        assert_eq!(res.agg.faults_injected, 1);
        assert_eq!(res.agg.first_fault_at, SimTime::from_us(50));
    }

    #[test]
    fn short_flap_is_recovered_by_fast_retransmit() {
        // §5: TLT does not recover non-congestion losses — but a flap
        // shorter than the RTT only punches a hole in the stream, and the
        // transport's fast retransmit fills it without an RTO.
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
        // Host index 1 is node 2; 5 us flap mid-transfer (base RTT 40 us).
        cfg.faults = faults::FaultSchedule::new().link_flap(
            SimTime::from_us(200),
            2,
            0,
            SimTime::from_us(5),
        );
        let res = Engine::new(
            cfg,
            vec![FlowSpec::new(1, 0, 1_000_000, SimTime::ZERO, false)],
        )
        .run();
        assert!(res.flows[0].end.is_some(), "flow survives the flap");
        assert!(res.agg.down_drops > 0, "the flap destroyed frames");
        assert_eq!(res.agg.timeouts, 0, "recovery did not need an RTO");
        assert!(res.agg.fast_retx > 0, "fast retransmit repaired the hole");
        assert_eq!(res.agg.faults_injected, 2, "down + up both applied");
    }

    /// A frame on the wire when its link goes down is destroyed where it
    /// arrives. `deliver` names the ingress link only once a fault has
    /// cleared `FaultState`'s quiet flag; were that test lost, this frame
    /// would reach the receiver and the one drop would be its ACK instead.
    #[test]
    fn frame_in_flight_on_a_downed_link_is_destroyed_at_arrival() {
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(2));
        cfg.max_time = SimTime::from_ms(1);
        // Host index 0 is node 1. Its one-frame flow leaves at 0 and is 10 us
        // on the wire; the link dies under it at 5 us.
        cfg.faults = faults::FaultSchedule::new().link_down(SimTime::from_us(5), 1, 0);
        let res = Engine::new(cfg, vec![FlowSpec::new(0, 1, 1_000, SimTime::ZERO, true)]).run();
        assert_eq!(res.agg.data_pkts_sent, 1, "no RTO inside the horizon");
        assert_eq!(res.agg.down_drops, 1);
        assert!(res.flows[0].end.is_none(), "the receiver never saw it");
    }

    #[test]
    fn reroute_restores_a_cross_fabric_flow() {
        // Kill the exact ToR uplink the flow's ECMP hash pinned; with a
        // reroute delay the flow re-pins onto a surviving core and finishes.
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp);
        let topo = cfg.topology.build();
        let (src, dst) = (topo.hosts()[0], topo.hosts()[95]);
        // Flow index 0, so the engine's `index ^ seed` salt reduces to the seed.
        let hash = netsim::topology::Topology::ecmp_hash(src, dst, cfg.seed);
        let (fwd, _) = topo.pin_paths(src, dst, hash);
        let uplink = fwd[1]; // host -> [ToR] -> core -> ToR -> host
        let cfg = cfg.with_faults(faults::FaultSchedule::new().link_down_rerouted(
            SimTime::from_us(100),
            uplink.node.0,
            uplink.port.0,
            SimTime::from_us(100),
        ));
        let res = Engine::new(
            cfg,
            vec![FlowSpec::new(0, 95, 2_000_000, SimTime::ZERO, false)],
        )
        .run();
        assert!(
            res.flows[0].end.is_some(),
            "flow completes after re-pinning"
        );
        assert_eq!(res.agg.reroutes, 1, "exactly one flow re-pinned");
        assert!(res.agg.down_drops > 0, "in-flight frames were destroyed");
    }

    #[test]
    fn fault_on_an_idle_link_perturbs_nothing() {
        // Per-link isolation: a loss model on a link nothing crosses must
        // not change a single byte of the outcome (the old global WireFault
        // could not make this guarantee).
        let run = |faulty: bool| {
            let mut cfg =
                SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(4));
            if faulty {
                // Host index 3 is node 4 and carries no flows.
                cfg.faults = faults::FaultSchedule::new().degrade(
                    SimTime::ZERO,
                    4,
                    0,
                    faults::LossModel::Bernoulli { rate: 0.5 },
                    Some(0.25),
                );
            }
            let flows = vec![
                FlowSpec::new(1, 0, 200_000, SimTime::ZERO, true),
                FlowSpec::new(2, 0, 200_000, SimTime::ZERO, true),
            ];
            Engine::new(cfg, flows).run()
        };
        let clean = run(false);
        let faulty = run(true);
        for (a, b) in clean.flows.iter().zip(faulty.flows.iter()) {
            assert_eq!(a.end, b.end, "flow outcome changed by an idle fault");
        }
        assert_eq!(clean.agg.data_pkts_sent, faulty.agg.data_pkts_sent);
        assert_eq!(clean.agg.drops_dt, faulty.agg.drops_dt);
        assert_eq!(faulty.agg.wire_drops, 0, "idle loss model never drew");
        assert_eq!(faulty.agg.faults_injected, 1);
    }

    /// Every `FaultKind` has a producer: a schedule holding a flap, a
    /// degrade and a pause storm traces each kind once, in `ALL`'s order.
    #[test]
    fn every_fault_kind_is_traced() {
        let mut cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
        // Host index 2 is node 3 and carries no flows; switch (node 0)
        // ingress 1 faces host index 1, the sender.
        cfg.faults = faults::FaultSchedule::new()
            .link_flap(SimTime::from_us(10), 3, 0, SimTime::from_us(5))
            .degrade(
                SimTime::from_us(20),
                3,
                0,
                faults::LossModel::None,
                Some(0.5),
            )
            .pause_storm(SimTime::from_us(30), 0, 1, SimTime::from_us(5));
        let mut eng = Engine::new(
            cfg,
            vec![FlowSpec::new(1, 0, 1_000_000, SimTime::ZERO, false)],
        );
        let (tracer, sink) = Tracer::new(Vec::<(SimTime, TraceEvent)>::new());
        eng.set_tracer(tracer);
        let res = eng.run();
        assert!(res.flows[0].end.is_some());
        let kinds: Vec<FaultKind> = sink
            .borrow()
            .iter()
            .filter_map(|(_, ev)| match ev {
                TraceEvent::Fault { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, FaultKind::ALL);
    }

    #[test]
    fn pause_storm_stalls_traffic_then_releases_it() {
        let mk = |storm: bool| {
            let mut cfg =
                SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
            if storm {
                // Switch (node 0) ingress 1 faces host index 1, the sender.
                cfg.faults = faults::FaultSchedule::new().pause_storm(
                    SimTime::from_us(100),
                    0,
                    1,
                    SimTime::from_us(300),
                );
            }
            Engine::new(
                cfg,
                vec![FlowSpec::new(1, 0, 1_000_000, SimTime::ZERO, false)],
            )
            .run()
        };
        let clean = mk(false);
        let stormy = mk(true);
        let fct_clean = clean.flows[0].fct().expect("clean run completes");
        let fct_storm = stormy.flows[0].fct().expect("stormy run completes");
        assert!(stormy.agg.pause_frames >= 1, "spurious XOFF was sent");
        assert!(stormy.agg.link_pause_fraction > 0.0);
        assert!(
            fct_storm >= fct_clean + SimTime::from_us(250),
            "storm stalled the flow: {fct_storm} vs {fct_clean}"
        );
        assert_eq!(stormy.agg.timeouts, 0, "300 us pause is below RTO_min");
    }

    /// Quiet ≡ not quiet. A fault schedule holding only a no-op (bringing
    /// up a link that is up, or degrading one with no loss model and no
    /// rate factor) clears `FaultState`'s quiet flag, so every later frame
    /// takes the per-link table lookups and the memo is bypassed — and the
    /// run must not differ from the fault-free one in anything but the
    /// fault bookkeeping and the one extra scheduled event. Checked on a
    /// lossy DCTCP incast (drops, RTOs, forensics) and a PFC cell (pauses).
    #[test]
    fn noop_fault_changes_nothing_but_its_own_bookkeeping() {
        use faults::{FaultAction, FaultEvent, FaultSchedule, LossModel};
        // Host index 1 is node 2: a sender's NIC, busy in both cells.
        let link_up = || {
            let mut s = FaultSchedule::new();
            s.push(FaultEvent {
                at: SimTime::ZERO,
                node: NodeId(2),
                port: PortId(0),
                action: FaultAction::LinkUp,
            });
            s
        };
        let degrade = || FaultSchedule::new().degrade(SimTime::ZERO, 2, 0, LossModel::None, None);
        let lossy = |faults: FaultSchedule| {
            // The synchronized short-flow incast of the tests above.
            let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
                .with_topology(small_single_switch(49))
                .with_faults(faults);
            cfg.switch.buffer_bytes = 800_000;
            cfg.switch.ecn = netsim::switch::EcnConfig::Threshold { k: 100_000 };
            let flows: Vec<FlowSpec> = (1..49)
                .flat_map(|s| [FlowSpec::new(s, 0, 8_000, SimTime::from_us(1), true); 2])
                .collect();
            let mut eng = Engine::new(cfg, flows);
            eng.set_metrics();
            let res = eng.run();
            assert!(res.agg.timeouts > 0 && res.agg.drops_dt > 0);
            res
        };
        let pfc = |faults: FaultSchedule| {
            let mut cfg = SimConfig::tcp_family(TransportKind::Tcp)
                .with_topology(small_single_switch(5))
                .with_pfc()
                .with_faults(faults);
            cfg.switch.buffer_bytes = 1_000_000;
            let flows: Vec<FlowSpec> = (1..5)
                .map(|s| FlowSpec::new(s, 0, 1_000_000, SimTime::from_us(1), true))
                .collect();
            let mut eng = Engine::new(cfg, flows);
            eng.set_metrics();
            let res = eng.run();
            assert!(res.agg.pause_frames > 0 && res.agg.link_pause_fraction > 0.0);
            res
        };
        type Cell<'a> = &'a dyn Fn(FaultSchedule) -> SimResult;
        let cells: [(&str, Cell); 2] = [("lossy", &lossy), ("pfc", &pfc)];
        for (label, cell) in cells {
            let clean = cell(FaultSchedule::new());
            for (what, schedule) in [("link_up", link_up()), ("degrade", degrade())] {
                let noop = cell(schedule);
                let label = format!("{label}/{what}");
                let rows = |r: &SimResult| -> Vec<_> {
                    r.flows
                        .iter()
                        .map(|f| (f.start, f.end, f.timeouts, f.retx))
                        .collect()
                };
                assert_eq!(rows(&clean), rows(&noop), "{label}: flow records");
                assert_eq!(clean.forensics, noop.forensics, "{label}: forensics");
                assert_eq!(noop.agg.faults_injected, 1, "{label}");
                assert_eq!(
                    noop.agg.events_scheduled,
                    clean.agg.events_scheduled + 1,
                    "{label}: the fault is the one extra event"
                );
                // Everything else in the aggregate, samples included.
                let mut agg = noop.agg.clone();
                agg.faults_injected = clean.agg.faults_injected;
                agg.first_fault_at = clean.agg.first_fault_at;
                agg.events_scheduled = clean.agg.events_scheduled;
                assert_eq!(format!("{agg:?}"), format!("{:?}", clean.agg), "{label}");
                // Per-port histograms and watermarks; `events_scheduled`
                // is the one counter that may differ.
                let metrics = |r: &SimResult| {
                    let mut reg = r.metrics.clone().expect("metrics enabled");
                    reg.inc("events_scheduled", u64::MAX - r.agg.events_scheduled);
                    reg.to_json()
                };
                assert_eq!(metrics(&clean), metrics(&noop), "{label}: metrics");
            }
        }
    }
}
