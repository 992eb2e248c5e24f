//! Construction: the port table and its audit against `Topology`, flows,
//! their routes and their completion callbacks (their transports and timer
//! slots are built at `FlowStart`, in `lifetime.rs`), the fault schedule,
//! and the observers a caller attaches before `run`.

use super::*;

impl Engine {
    /// Builds an engine for `cfg` over the given flows.
    ///
    /// # Panics
    ///
    /// Panics, with the [`ConfigError`]'s message, on anything
    /// [`Engine::try_new`] rejects.
    pub fn new(cfg: SimConfig, specs: Vec<FlowSpec>) -> Engine {
        Engine::try_new(cfg, specs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an engine for `cfg` over the given flows, rejecting a
    /// degenerate topology, a flow whose endpoints are not two distinct
    /// hosts or whose completion trigger does not precede it, and a fault
    /// aimed at a node or port that does not exist (or a pause storm at a
    /// host) with a typed error instead of a panic.
    pub fn try_new(cfg: SimConfig, mut specs: Vec<FlowSpec>) -> Result<Engine, ConfigError> {
        let topo = cfg.topology.try_build()?;
        let hosts = topo.hosts().to_vec();
        let n_nodes = topo.node_count();

        // One switch per switch id, and the port table: every port's wire is
        // resolved here, once, so the run loop never walks `topo`.
        let n_switches = topo.switch_count();
        if cfg!(debug_assertions) {
            for n in 0..n_nodes {
                let switch = topo.kind(NodeId(n as u32)) == NodeKind::Switch;
                assert_eq!(switch, n < n_switches, "node {n}: switches come first");
            }
        }
        let mut switches: Vec<Switch> = Vec::with_capacity(n_switches);
        let mut ports: Vec<Port> = Vec::with_capacity(topo.link_count());
        let mut port_base: Vec<u32> = Vec::with_capacity(n_nodes + 1);
        let idx32 = |i: usize| u32::try_from(i).expect("port table fits a u32 index");
        for n in 0..n_nodes {
            let node = NodeId(n as u32);
            let n_ports = topo.port_count(node);
            port_base.push(idx32(ports.len()));
            // A queued frame records its switch ingress port in a `u16`.
            if n < n_switches && n_ports > usize::from(u16::MAX) {
                return Err(ConfigError::TooManyPorts {
                    node: idx32(n),
                    ports: n_ports,
                });
            }
            let mut sw = (n < n_switches).then(|| {
                let sw_cfg = SwitchConfig {
                    ports: n_ports,
                    total_buffer: cfg.switch.buffer_bytes,
                    alpha: cfg.switch.alpha,
                    color_threshold: cfg.switch.color_threshold,
                    ecn: cfg.switch.ecn,
                    pfc: cfg
                        .pfc
                        .then(|| PfcConfig::derive(cfg.switch.buffer_bytes, n_ports)),
                    int_enabled: cfg.transport == TransportKind::Hpcc,
                    port_rate_bps: topo.link_from(node, PortId(0)).1.spec.bandwidth_bps,
                };
                Switch::new(sw_cfg, cfg.seed ^ (n as u64) << 17)
            });
            for p in 0..n_ports {
                let port = PortId(idx32(p));
                let (lid, rec) = topo.link_from(node, port);
                // INT hops report the capacity of the egress they left by,
                // which need not be port 0's.
                if let Some(sw) = sw.as_mut() {
                    sw.set_port_rate(port, rec.spec.bandwidth_bps);
                }
                ports.push(Port {
                    busy: false,
                    paused: false,
                    tx_done_queued: false,
                    free_at: SimTime::ZERO,
                    free_seq: 0,
                    lid,
                    peer: rec.to,
                    spec: rec.spec,
                    memo_wire: 0,
                    memo_tx: SimTime::ZERO,
                });
            }
            switches.extend(sw);
        }
        port_base.push(idx32(ports.len()));
        let host_q = vec![FrameQueue::new(); hosts.len()];

        // Base RTT: twice the one-way delay of the longest path plus a
        // handful of serialization times — we use the pure propagation
        // figure the paper quotes (e.g. 80 μs for 4 hops at 10 μs).
        let max_hops = match cfg.topology {
            netsim::topology::TopologySpec::FatTree { .. } => 6,
            netsim::topology::TopologySpec::LeafSpine { .. } => 4,
            netsim::topology::TopologySpec::Dumbbell { .. } => 3,
            netsim::topology::TopologySpec::SingleSwitch { .. } => 2,
        };
        let link = topo.link_from(hosts[0], PortId(0)).1.spec;
        let base_rtt = SimTime::from_ns(2 * max_hops * link.delay.as_ns());
        let bdp = link.bdp_bytes(base_rtt).max(u64::from(cfg.mss) * 4);

        // Pre-size the queue's node arena to the expected peak depth so it
        // does not regrow mid-run; small runs stay small via the per-flow
        // term. Measured peaks on the benchmark's seven workloads
        // (`eventsim.queue_peak_depth`) are 0.9 to 3.7 pending events per
        // flow and 2.5k to 12.5k in all, so four nodes per flow under a 16k
        // cap covers each of them (with room: that depth also counts the
        // far-heap entries, which take no node). Reserved nodes are
        // untouched memory until used; a deeper run just grows the arena.
        let queue_cap = (specs.len().saturating_mul(4) + 256).min(1 << 14);
        let mut queue = EventQueue::with_capacity(queue_cap);
        let mut flows = Vec::with_capacity(specs.len());
        let mut routes = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            for host in [spec.src, spec.dst] {
                if host >= hosts.len() {
                    return Err(ConfigError::HostOutOfRange {
                        flow: i,
                        host,
                        hosts: hosts.len(),
                    });
                }
            }
            if spec.src == spec.dst {
                return Err(ConfigError::SameEndpoints {
                    flow: i,
                    host: spec.src,
                });
            }
            let src = hosts[spec.src];
            let dst = hosts[spec.dst];
            let hash = Topology::ecmp_hash(src, dst, pin_salt(i as u32, cfg.seed, 0));
            let (fwd, rev) = topo.pinned_paths(src, dst, hash);
            routes.push(FlowRoute::pin(&fwd, &rev));
            match spec.after {
                // A dependent flow waits for its parent's completion
                // callback instead of an absolute FlowStart.
                Some(parent) => {
                    if parent as usize >= i {
                        return Err(ConfigError::TriggerNotEarlier { flow: i, parent });
                    }
                }
                None => queue.schedule(spec.start, Event::FlowStart(i as u32)),
            }
            flows.push(FlowRuntime {
                src,
                dst,
                repins: 0,
                rx: None,
                complete_at: None,
                tx_epoch: 0,
                run: None,
            });
        }
        let dependents = Dependents::new(specs.iter().map(|spec| spec.after));
        if let Some(every) = cfg.queue_sample_every {
            queue.schedule(every, Event::QueueSample);
        }

        // Per-link fault state. The seed derivation matches the old global
        // `WireFault` exactly, so `wire_loss_rate` runs reproduce the
        // historical drop pattern byte for byte.
        let mut fstate = FaultState::new(topo.link_count(), cfg.seed ^ 0x5717E_u64);
        if cfg.wire_loss_rate > 0.0 {
            fstate.set_uniform_loss(cfg.wire_loss_rate);
        }
        // Faults ride the main event queue (stable FIFO tie-break keeps
        // list order at equal timestamps), so `--jobs N` determinism holds.
        for (i, ev) in cfg.faults.events().iter().enumerate() {
            let (node, port) = (ev.node.0, ev.port.0);
            if node as usize >= n_nodes {
                return Err(ConfigError::FaultNodeOutOfRange {
                    fault: i,
                    node,
                    nodes: n_nodes,
                });
            }
            let ports = topo.port_count(ev.node);
            if port as usize >= ports {
                return Err(ConfigError::FaultPortOutOfRange {
                    fault: i,
                    node,
                    port,
                    ports,
                });
            }
            if matches!(ev.action, FaultAction::PauseStorm { .. })
                && topo.kind(ev.node) != NodeKind::Switch
            {
                return Err(ConfigError::StormAtHost { fault: i, node });
            }
            queue.schedule(ev.at, Event::Fault(i as u32));
        }

        // The engine keeps the caller's specs for the run instead of copying
        // each into its flow's record. A list grown by pushing can hold
        // nearly as much spare capacity again; shrinking it in place (no
        // spec moves) keeps exactly the copies' 48 bytes per flow.
        specs.shrink_to_fit();
        let mut eng = Engine {
            cfg,
            ledger: ConservationLedger::new(topo.link_count()),
            prof: None,
            latency: None,
            topo,
            switches,
            ports,
            pause_acct: Vec::new(),
            port_base,
            host_q,
            specs,
            counters: vec![SenderStats::default(); flows.len()],
            flows,
            routes,
            dependents,
            queue,
            pkts: PacketSlab::with_capacity(1024),
            now: SimTime::ZERO,
            actions: Vec::new(),
            base_rtt,
            bdp,
            faults: fstate,
            faults_injected: 0,
            first_fault_at: None,
            reroutes: 0,
            tracer: Tracer::off(),
            pause_log: std::collections::VecDeque::new(),
            rto_causes: RtoCauseCounts::default(),
            forensics: Vec::new(),
            metrics: None,
            #[cfg(test)]
            eager: false,
            #[cfg(test)]
            loss_rings: Default::default(),
        };
        if cfg!(debug_assertions) {
            eng.check_port_table();
        }
        if crate::profile::ATTACH_ALWAYS {
            eng.set_profile();
        }
        Ok(eng)
    }

    /// Every record of the port table says what [`Topology`] says about
    /// its port, and everything kept on the port index covers exactly that
    /// table (run by `new` and `set_metrics` in builds with debug
    /// assertions).
    fn check_port_table(&self) {
        assert_eq!(self.ports.len(), self.topo.link_count());
        if let Some(m) = &self.metrics {
            assert_eq!(m.port_count(), self.ports.len(), "metric accumulators");
        }
        for n in 0..self.topo.node_count() {
            let node = NodeId(n as u32);
            assert_eq!(
                (self.port_base[n + 1] - self.port_base[n]) as usize,
                self.topo.port_count(node),
                "port range of node {n}"
            );
            for p in 0..self.topo.port_count(node) {
                let port = PortId(p as u32);
                let rec = &self.ports[self.port_index(node, port)];
                let (lid, link) = self.topo.link_from(node, port);
                assert_eq!(
                    (rec.lid, rec.peer, rec.spec),
                    (lid, link.to, link.spec),
                    "port table entry for node {n} port {p}"
                );
                assert_eq!(
                    rec.in_link(),
                    self.topo.incoming_link(node, port),
                    "incoming link of node {n} port {p}"
                );
            }
        }
    }

    /// Attaches the flight recorder: every switch, transport sender (as it
    /// is built, at its `FlowStart`), and the engine itself emit
    /// [`TraceEvent`]s into `tracer`'s sink. When `cfg.trace_sample_every`
    /// is set, per-port `PortSample` telemetry is scheduled too. Call before
    /// [`Engine::run`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for (n, sw) in self.switches.iter_mut().enumerate() {
            sw.set_tracer(tracer.clone(), n as u32);
        }
        if tracer.is_on() {
            if let Some(every) = self.cfg.trace_sample_every {
                self.queue.schedule(every, Event::TraceSample);
            }
        }
        self.tracer = tracer;
    }

    /// Enables the metrics registry: per-port queue-depth histograms and
    /// watermarks, PFC pause-duration histograms, and end-of-run counters
    /// (RTO root causes, drop/mark totals, TLT transmit overhead). Call
    /// before [`Engine::run`]; the populated [`Registry`] is returned in
    /// [`SimResult::metrics`].
    pub fn set_metrics(&mut self) {
        self.metrics = Some(PortMetrics::new(self.ports.len()));
        if cfg!(debug_assertions) {
            self.check_port_table();
        }
    }

    /// Attaches the event-level profiler: per-kind schedule/execute
    /// tallies, fan-out and queue-depth histograms, and sim-time series,
    /// returned as an [`Artifact`](telemetry::Artifact) in
    /// [`SimResult::profile`]. It watches pops only, so the profile is the
    /// same whenever it is attached before [`Engine::run`]. Idempotent.
    pub fn set_profile(&mut self) {
        debug_assert_eq!(self.queue.pops_total(), 0, "attach before the run");
        if self.prof.is_none() {
            self.prof = Some(Box::default());
        }
    }

    /// Attaches the latency ledger: each flow's completion time split into
    /// phases with `Σ phases == FCT`, returned in [`SimResult::ledger`].
    /// Allocates one [`FlowLedger`] per flow and the packet slab's journey
    /// side table; an engine without it carries neither. Call before
    /// [`Engine::run`]. Idempotent.
    pub fn set_ledger(&mut self) {
        if self.latency.is_none() {
            self.latency = Some(vec![FlowLedger::default(); self.flows.len()]);
            self.pkts.stamp_journeys();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::small_single_switch;

    #[test]
    #[should_panic(expected = "flow 1: host 7 out of range (3 hosts)")]
    fn out_of_range_host_is_rejected_with_the_flow_index() {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
        let flows = vec![
            FlowSpec::new(0, 1, 1_000, SimTime::ZERO, true),
            FlowSpec::new(2, 7, 1_000, SimTime::ZERO, true),
        ];
        let _ = Engine::new(cfg, flows);
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn forward_completion_trigger_is_rejected() {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
        let flows = vec![
            FlowSpec::new(0, 1, 1_000, SimTime::ZERO, true).after(1),
            FlowSpec::new(1, 0, 1_000, SimTime::ZERO, true),
        ];
        let _ = Engine::new(cfg, flows);
    }

    /// What `try_new` says about `flows` (and `faults`) on a three-host
    /// single switch: node 0 is the switch, hosts are nodes 1..=3.
    fn rejected(flows: Vec<FlowSpec>, faults: faults::FaultSchedule) -> ConfigError {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
            .with_topology(small_single_switch(3))
            .with_faults(faults);
        Engine::try_new(cfg, flows).err().expect("rejected")
    }

    fn flow(src: usize, dst: usize) -> FlowSpec {
        FlowSpec::new(src, dst, 1_000, SimTime::ZERO, true)
    }

    #[test]
    fn try_new_wraps_a_topology_error() {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(1));
        let e = Engine::try_new(cfg, vec![]).err().expect("rejected");
        let inner = netsim::topology::TopologyError::TooFewHosts { hosts: 1 };
        assert_eq!(e, ConfigError::Topology(inner));
        assert_eq!(e.to_string(), inner.to_string());
    }

    #[test]
    fn try_new_names_the_flow_with_an_unknown_host() {
        let e = rejected(vec![flow(0, 1), flow(2, 7)], Default::default());
        let want = ConfigError::HostOutOfRange {
            flow: 1,
            host: 7,
            hosts: 3,
        };
        assert_eq!(e, want);
        assert_eq!(e.to_string(), "flow 1: host 7 out of range (3 hosts)");
    }

    #[test]
    fn try_new_names_the_flow_from_a_host_to_itself() {
        let e = rejected(vec![flow(0, 1), flow(0, 2), flow(2, 2)], Default::default());
        assert_eq!(e, ConfigError::SameEndpoints { flow: 2, host: 2 });
        assert_eq!(e.to_string(), "flow 2: src == dst (host 2)");
    }

    #[test]
    fn try_new_names_the_flow_whose_trigger_does_not_precede_it() {
        // Itself, and a later flow: neither can have completed first.
        for parent in [1, 2] {
            let flows = vec![flow(0, 1), flow(1, 0).after(parent), flow(2, 0)];
            let e = rejected(flows, Default::default());
            assert_eq!(e, ConfigError::TriggerNotEarlier { flow: 1, parent });
            assert_eq!(
                e.to_string(),
                format!("flow 1: completion trigger {parent} must precede it")
            );
        }
    }

    #[test]
    fn try_new_names_the_fault_at_an_unknown_node() {
        let schedule = faults::FaultSchedule::new()
            .link_down(SimTime::ZERO, 1, 0)
            .link_down(SimTime::ZERO, 4, 0);
        let e = rejected(vec![flow(0, 1)], schedule);
        let want = ConfigError::FaultNodeOutOfRange {
            fault: 1,
            node: 4,
            nodes: 4,
        };
        assert_eq!(e, want);
        assert_eq!(e.to_string(), "fault 1: node 4 out of range (4 nodes)");
    }

    #[test]
    fn try_new_names_the_fault_at_an_unknown_port() {
        // A host has the one NIC port; the switch has ports 0..=2.
        for (node, port, ports) in [(2, 1, 1), (0, 3, 3)] {
            let schedule = faults::FaultSchedule::new().link_down(SimTime::ZERO, node, port);
            let e = rejected(vec![flow(0, 1)], schedule);
            let want = ConfigError::FaultPortOutOfRange {
                fault: 0,
                node,
                port,
                ports,
            };
            assert_eq!(e, want);
            assert_eq!(
                e.to_string(),
                format!("fault 0: port {port} out of range for node {node} ({ports} ports)")
            );
        }
    }

    #[test]
    fn try_new_names_the_pause_storm_aimed_at_a_host() {
        let storm = |node| {
            faults::FaultSchedule::new().pause_storm(SimTime::ZERO, node, 0, SimTime::from_us(1))
        };
        let e = rejected(vec![flow(0, 1)], storm(3));
        assert_eq!(e, ConfigError::StormAtHost { fault: 0, node: 3 });
        assert_eq!(
            e.to_string(),
            "fault 0: pause storms target a switch ingress, node 3 is a host"
        );
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
            .with_topology(small_single_switch(3))
            .with_faults(storm(0));
        assert!(Engine::try_new(cfg, vec![flow(0, 1)]).is_ok());
    }

    /// A queued frame names its switch ingress port in a `u16`: a switch
    /// with more ports is a typed error, not `Switch::new`'s panic.
    #[test]
    fn try_new_names_the_switch_with_more_ports_than_a_frame_can_name() {
        let ports = usize::from(u16::MAX) + 1;
        let cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(ports));
        let e = Engine::try_new(cfg, vec![flow(0, 1)])
            .err()
            .expect("rejected");
        assert_eq!(e, ConfigError::TooManyPorts { node: 0, ports });
        assert_eq!(
            e.to_string(),
            "switch 0: 65536 ports, more than the 65535 a switch may have"
        );
    }

    fn two_speed_specs() -> [netsim::topology::TopologySpec; 4] {
        use netsim::topology::TopologySpec;
        let fast = LinkSpec::new(40_000_000_000, SimTime::from_us(10));
        let slow = LinkSpec::new(10_000_000_000, SimTime::from_us(3));
        [
            TopologySpec::SingleSwitch {
                hosts: 3,
                host_link: fast,
            },
            TopologySpec::Dumbbell {
                left_hosts: 2,
                right_hosts: 3,
                host_link: fast,
                cross_link: slow,
            },
            TopologySpec::LeafSpine {
                cores: 2,
                tors: 3,
                hosts_per_tor: 2,
                host_link: fast,
                fabric_link: slow,
            },
            TopologySpec::FatTree {
                k: 4,
                host_link: fast,
                fabric_link: slow,
            },
        ]
    }

    /// The port table against its source, on every topology shape (with
    /// two link speeds where the shape has two kinds of link): each record
    /// carries its port's link, peer, rate and delay, the incoming link is
    /// `lid ^ 1`, and the hot record fits a cache line.
    #[test]
    fn port_table_mirrors_the_topology() {
        assert!(
            std::mem::size_of::<Port>() <= 64,
            "hot port record is {} bytes",
            std::mem::size_of::<Port>()
        );
        for spec in two_speed_specs() {
            let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(spec);
            let eng = Engine::new(cfg, vec![FlowSpec::new(0, 1, 1_000, SimTime::ZERO, true)]);
            eng.check_port_table();
            for (i, rec) in eng.ports.iter().enumerate() {
                // Peers point at each other.
                let back = eng.ports[eng.port_index(rec.peer.0, rec.peer.1)];
                assert_eq!(eng.port_index(back.peer.0, back.peer.1), i);
                assert_eq!(back.lid, rec.in_link());
            }
        }
    }

    /// INT hops carry the capacity of the egress they left by: on fabrics
    /// whose links differ in speed every switch port must stamp its own
    /// link's rate, not port 0's.
    #[test]
    fn int_hops_report_each_egress_ports_own_rate() {
        for spec in two_speed_specs() {
            let cfg = SimConfig::roce_family(TransportKind::Hpcc).with_topology(spec);
            let mut eng = Engine::new(cfg, vec![FlowSpec::new(0, 1, 1_000, SimTime::ZERO, true)]);
            let mut rates = std::collections::BTreeSet::new();
            for (n, sw) in eng.switches.iter_mut().enumerate() {
                for p in 0..sw.config().ports {
                    let egress = PortId(p as u32);
                    let pkt = eng.pkts.insert(Packet::data(FlowId(0), 0, 1_000));
                    let out = sw.enqueue(pkt, &mut eng.pkts, PortId(0), egress, SimTime::ZERO);
                    assert!(out.enqueued);
                    let (pkt, _) = sw.dequeue(&mut eng.pkts, egress, SimTime::ZERO);
                    let hop = eng.pkts.take(pkt.expect("just enqueued")).int_stack[0];
                    let link = eng.topo.link_from(NodeId(n as u32), egress).1.spec;
                    assert_eq!(hop.rate_bps, link.bandwidth_bps, "node {n} port {p}");
                    rates.insert(hop.rate_bps);
                }
            }
            let two_speeds = !matches!(
                eng.cfg.topology,
                netsim::topology::TopologySpec::SingleSwitch { .. }
            );
            assert_eq!(rates.len(), 1 + usize::from(two_speeds));
        }
    }

    /// The completion callbacks are one table: flow 0 has three dependents,
    /// flow 1 (one of them) has one of its own, flow 2 and the leaves none.
    /// Each parent's children sit ascending in one slice, and the run
    /// releases each at its parent's completion plus its think time.
    #[test]
    fn dependents_form_one_table_in_flow_order() {
        let after = [None, Some(0), None, Some(0), Some(1), Some(0)];
        let deps = Dependents::new(after.into_iter());
        let of = |p: u32| &deps.flows[deps.range(p)];
        assert_eq!(of(0), [1, 3, 5]);
        assert_eq!(of(1), [4]);
        for p in [2, 3, 4, 5] {
            assert!(of(p).is_empty(), "flow {p}");
        }
        assert_eq!(deps.start.len(), after.len() + 1);

        let flows: Vec<FlowSpec> = after
            .iter()
            .enumerate()
            .map(|(i, parent)| {
                let spec =
                    FlowSpec::new(i % 3, (i + 1) % 3, 20_000, SimTime::from_us(i as u64), true);
                match parent {
                    Some(p) => spec.after(*p),
                    None => spec,
                }
            })
            .collect();
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
        let res = Engine::new(cfg, flows).run();
        for (i, parent) in after.iter().enumerate() {
            let rec = &res.flows[i];
            assert!(rec.end.is_some(), "flow {i} completed");
            if let Some(p) = parent {
                let released = res.flows[*p as usize].end.expect("parent completed");
                assert_eq!(rec.start, released + SimTime::from_us(i as u64), "flow {i}");
            }
        }
    }

    #[test]
    fn base_rtt_matches_paper() {
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp);
        let eng = Engine::new(cfg, vec![FlowSpec::new(0, 1, 1000, SimTime::ZERO, false)]);
        assert_eq!(eng.base_rtt(), SimTime::from_us(80));
        assert_eq!(eng.bdp(), 400_000);
    }
}
