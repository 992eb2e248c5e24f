//! The route table: each flow's pinned egress ports in 16 bytes, so a
//! transit hop reads one small record instead of walking flow → path → hop
//! (DESIGN §12 "Route table").

use super::*;
use netsim::topology::MAX_PATH_HOPS;

/// One flow's pinned route, a row per [`Direction`] (`dir as usize`): byte 0
/// is the path's length and byte `h` the egress port of path index `h`
/// (index 0 is the sending host's NIC, which `deliver` never asks for). A
/// zero length means "no record: walk the path", which is what a path too
/// long or a port id too wide for a byte gets, and what every flow gets once
/// it has been re-pinned: the record is a memo of `path[h].port` for a path
/// that has never changed, and holds no node ids to tell a frame stranded on
/// an old path from one on the new.
#[derive(Clone, Copy, Default)]
pub(super) struct FlowRoute([[u8; MAX_PATH_HOPS]; 2]);

impl FlowRoute {
    /// The record of a freshly pinned pair of paths.
    pub(super) fn pin(fwd: &[Hop], rev: &[Hop]) -> FlowRoute {
        let row = |path: &[Hop]| -> Option<[u8; MAX_PATH_HOPS]> {
            if path.len() > MAX_PATH_HOPS {
                return None;
            }
            let mut row = [0; MAX_PATH_HOPS];
            row[0] = u8::try_from(path.len()).ok()?;
            for (byte, hop) in row.iter_mut().zip(path).skip(1) {
                *byte = u8::try_from(hop.port.0).ok()?;
            }
            Some(row)
        };
        FlowRoute([fwd, rev].map(|path| row(path).unwrap_or_default()))
    }

    /// The egress port of transit hop `hop` travelling `dir`, or `None` when
    /// there is no record or `hop` is past the path's last switch (an
    /// endpoint arrival): the caller then walks the path.
    #[inline]
    pub(super) fn egress(&self, dir: Direction, hop: u8) -> Option<PortId> {
        let row = &self.0[dir as usize];
        // `hop < row[0] <= MAX_PATH_HOPS`; the modulo only tells the
        // compiler so.
        (hop < row[0]).then(|| PortId(u32::from(row[usize::from(hop) % MAX_PATH_HOPS])))
    }

    /// The length of the path travelling `dir`, when there is a record.
    #[inline]
    pub(super) fn path_len(&self, dir: Direction) -> Option<usize> {
        let len = usize::from(self.0[dir as usize][0]);
        (len > 0).then_some(len)
    }
}

impl Engine {
    /// The per-hop audit of builds with debug assertions: a table hit names
    /// the node and the port the path walk would have.
    pub(super) fn check_route_hit(
        &self,
        f: u32,
        dir: Direction,
        hop: u8,
        to: NodeId,
        egress: PortId,
    ) {
        assert_eq!(
            self.flows[f as usize].path(dir).get(usize::from(hop)),
            Some(&Hop {
                node: to,
                port: egress
            }),
            "route table of flow {f} {dir:?} at hop {hop}"
        );
    }

    /// Empties every record, so every hop walks the path: the naive side of
    /// `route_table_matches_the_path_walk`.
    #[cfg(test)]
    fn forget_routes(&mut self) {
        self.routes.fill(FlowRoute::default());
    }
}

const _: () = assert!(std::mem::size_of::<FlowRoute>() == 16);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::small_single_switch;
    use crate::engine::drawn::{assert_same_run, fabric_cell};
    use eventsim::SimRng;
    use netsim::topology::TopologySpec;

    fn run(cfg: &SimConfig, flows: &[FlowSpec], forget: bool) -> SimResult {
        let mut eng = Engine::new(cfg.clone(), flows.to_vec());
        if forget {
            eng.forget_routes();
        }
        eng.run()
    }

    /// Table ≡ walk. The same drawn cell runs with the route table and with
    /// every record emptied (each hop then walks flow → path → hop, the
    /// parent's code): every flow record, every forensic record and the
    /// whole aggregate, samples included, must agree. A few cells under
    /// `debug_assertions` (where each table hit is also audited on the
    /// spot), a few hundred in a release test run (CI).
    #[test]
    fn route_table_matches_the_path_walk() {
        let cases = if cfg!(debug_assertions) { 8 } else { 400 };
        let mut rng = SimRng::seed_from(0x0007_AB1E);
        let (mut drops, mut pauses, mut reroutes, mut destroyed) = (0, 0, 0, 0);
        for case in 0..cases {
            let (cfg, flows) = fabric_cell(case, &mut rng);
            let table = run(&cfg, &flows, false);
            let walk = run(&cfg, &flows, true);
            let label = format!("case {case} (kind {})", case % 4);
            assert_same_run(&label, &table, &walk);
            assert!(table.agg.data_pkts_sent > 0, "{label}: ran");
            drops += table.agg.drops_color + table.agg.drops_dt;
            pauses += table.agg.pause_frames;
            reroutes += table.agg.reroutes;
            destroyed += table.agg.down_drops;
        }
        // The cells do what they are there for.
        assert!(drops > 0, "the lossy cell dropped");
        assert!(pauses > 0, "the PFC cell paused");
        assert!(
            reroutes > 0 && destroyed > 0,
            "the fault cell re-pinned ({reroutes}) and destroyed frames ({destroyed})"
        );
    }

    /// A record is `path[h].port` for every transit index `h`, both ways, on
    /// every topology shape, and answers `None` from the path's end on.
    #[test]
    fn records_mirror_the_pinned_paths() {
        let link = LinkSpec::new(40_000_000_000, SimTime::from_us(1));
        let shapes = [
            small_single_switch(3),
            TopologySpec::Dumbbell {
                left_hosts: 2,
                right_hosts: 3,
                host_link: link,
                cross_link: link,
            },
            TopologySpec::LeafSpine {
                cores: 2,
                tors: 3,
                hosts_per_tor: 2,
                host_link: link,
                fabric_link: link,
            },
            TopologySpec::paper_fat_tree(4, SimTime::from_us(1)),
        ];
        let mut longest = 0;
        for shape in shapes {
            let hosts = shape.build().hosts().len();
            let flows: Vec<FlowSpec> = (0..hosts)
                .flat_map(|s| (0..hosts).filter(move |&d| d != s).map(move |d| (s, d)))
                .map(|(s, d)| FlowSpec::new(s, d, 1_000, SimTime::ZERO, true))
                .collect();
            let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(shape);
            let eng = Engine::new(cfg, flows);
            for (rt, route) in eng.flows.iter().zip(&eng.routes) {
                for dir in [Direction::Fwd, Direction::Rev] {
                    let path = rt.path(dir);
                    assert_eq!(route.path_len(dir), Some(path.len()));
                    for (h, hop) in path.iter().enumerate().skip(1) {
                        assert_eq!(route.egress(dir, h as u8), Some(hop.port));
                    }
                    for past in path.len()..=usize::from(u8::MAX) {
                        assert_eq!(route.egress(dir, past as u8), None);
                    }
                    longest = longest.max(path.len());
                }
            }
        }
        assert_eq!(longest, 6, "a cross-pod fat-tree route was covered");
    }

    /// Switch port ids past a byte: a path through one gets no record (not a
    /// truncated one), the other direction keeps its own, and the flow
    /// completes by the path walk.
    #[test]
    fn port_ids_past_a_byte_fall_back_to_the_walk() {
        let cfg =
            SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(300));
        let flows = vec![
            FlowSpec::new(0, 299, 200_000, SimTime::ZERO, true),
            FlowSpec::new(1, 2, 200_000, SimTime::ZERO, true),
        ];
        let eng = Engine::new(cfg, flows);
        // Host index i hangs off switch port i.
        assert_eq!(eng.flows[0].path_fwd[1].port, PortId(299));
        assert_eq!(eng.routes[0].path_len(Direction::Fwd), None);
        assert_eq!(eng.routes[0].egress(Direction::Fwd, 1), None);
        assert_eq!(eng.routes[0].egress(Direction::Rev, 1), Some(PortId(0)));
        assert_eq!(eng.routes[1].egress(Direction::Fwd, 1), Some(PortId(2)));
        let res = eng.run();
        assert!(res.flows.iter().all(|f| f.end.is_some()));
        assert_eq!(res.agg.timeouts, 0);
    }

    /// A path longer than a row gets no record either.
    #[test]
    fn an_oversize_path_gets_no_record() {
        let hop = Hop {
            node: NodeId(1),
            port: PortId(1),
        };
        let route = FlowRoute::pin(&[hop; MAX_PATH_HOPS + 1], &[hop; MAX_PATH_HOPS]);
        assert_eq!(route.path_len(Direction::Fwd), None);
        assert_eq!(route.path_len(Direction::Rev), Some(MAX_PATH_HOPS));
        assert_eq!(route.egress(Direction::Rev, 7), Some(PortId(1)));
        assert_eq!(route.egress(Direction::Rev, 8), None);
    }

    /// `fault::tests::reroute_restores_a_cross_fabric_flow`'s scenario: the
    /// re-pin empties the flow's record (it is not rewritten to the new
    /// path), and the run's fault counters are the ones recorded at the
    /// parent of the route table.
    #[test]
    fn a_re_pinned_flow_loses_its_record() {
        let flows = vec![FlowSpec::new(0, 95, 2_000_000, SimTime::ZERO, false)];
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp);
        let uplink = Engine::new(cfg.clone(), flows.clone()).flows[0].path_fwd[1];
        let cfg = cfg.with_faults(faults::FaultSchedule::new().link_down_rerouted(
            SimTime::from_us(100),
            uplink.node.0,
            uplink.port.0,
            SimTime::from_us(100),
        ));
        let mut eng = Engine::new(cfg.clone(), flows.clone());
        assert_eq!(eng.routes[0].path_len(Direction::Fwd), Some(4));
        eng.apply_fault(0);
        eng.reroute_flows();
        assert_eq!(eng.reroutes, 1);
        assert_ne!(eng.flows[0].path_fwd[1], uplink, "onto another core");
        for dir in [Direction::Fwd, Direction::Rev] {
            assert_eq!(eng.routes[0].path_len(dir), None);
        }
        let res = Engine::new(cfg, flows).run();
        assert!(res.flows[0].end.is_some());
        assert_eq!((res.agg.reroutes, res.agg.down_drops), (1, 20));
    }
}
