//! Drawn cells for the fast-vs-reference differentials (test-only): each
//! differential runs the same `SimRng`-drawn cell with a piece of derived
//! state on and off and compares the results whole.

use super::*;
use eventsim::SimRng;
use netsim::topology::TopologySpec;

/// `n` flows between drawn `endpoints`, sizes log-uniform over
/// `2 kB << 0..=span`, starts within `within_us`.
pub(super) fn drawn_flows(
    rng: &mut SimRng,
    n: usize,
    span: u64,
    within_us: u64,
    mut endpoints: impl FnMut(&mut SimRng) -> (usize, usize),
) -> Vec<FlowSpec> {
    (0..n)
        .map(|_| {
            let (src, dst) = endpoints(rng);
            let bytes = (2_000 << rng.gen_range_u64(0..span + 1)) + rng.gen_range_u64(0..2_000);
            let start = SimTime::from_ns(rng.gen_range_u64(0..within_us * 1_000));
            FlowSpec::new(src, dst, bytes, start, rng.gen_bool(0.5))
        })
        .collect()
}

/// Two distinct hosts out of `hosts`.
pub(super) fn any_pair(rng: &mut SimRng, hosts: usize) -> (usize, usize) {
    let src = rng.gen_range_usize(0..hosts);
    let dst = (src + 1 + rng.gen_range_usize(0..hosts - 1)) % hosts;
    (src, dst)
}

/// One drawn fabric cell of kind `kind % 4`: cross-pod HPCC on a k=4
/// fat-tree, a lossy DCTCP+TLT mix slice on the leaf–spine fabric, a
/// cross-rack PFC incast, and a leaf–spine cell whose flows are re-pinned
/// off a downed uplink with frames in flight and then cross a flapping link.
pub(super) fn fabric_cell(kind: usize, rng: &mut SimRng) -> (SimConfig, Vec<FlowSpec>) {
    let seed = rng.gen_u64();
    match kind % 4 {
        0 => {
            let mut cfg = SimConfig::roce_family(TransportKind::Hpcc)
                .with_topology(TopologySpec::paper_fat_tree(4, SimTime::from_us(2)))
                .with_seed(seed);
            if rng.gen_bool(0.5) {
                cfg = cfg.with_tlt();
            }
            let n = rng.gen_range_usize(4..13);
            // Four hosts to a pod: the two ends sit in different pods.
            let flows = drawn_flows(rng, n, 9, 50, |rng| {
                let (sp, dp) = any_pair(rng, 4);
                (
                    4 * sp + rng.gen_range_usize(0..4),
                    4 * dp + rng.gen_range_usize(0..4),
                )
            });
            (cfg, flows)
        }
        1 => {
            let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_seed(seed);
            cfg.switch.buffer_bytes = 200_000;
            cfg.switch.ecn = netsim::switch::EcnConfig::Threshold { k: 30_000 };
            cfg.switch.color_threshold = Some(60_000);
            let cfg = cfg.with_tlt();
            let hot = rng.gen_range_usize(0..96);
            let n = rng.gen_range_usize(30..61);
            let flows = drawn_flows(rng, n, 8, 20, |rng| {
                let (src, dst) = any_pair(rng, 96);
                // Half the flows converge on one host.
                if rng.gen_bool(0.5) && src != hot {
                    (src, hot)
                } else {
                    (src, dst)
                }
            });
            (cfg, flows)
        }
        2 => {
            let mut cfg = SimConfig::tcp_family(TransportKind::Tcp)
                .with_pfc()
                .with_seed(seed);
            cfg.switch.buffer_bytes = 1_000_000;
            let n = rng.gen_range_usize(8..17);
            // Senders in racks 1..12, one receiver in rack 0.
            let flows = drawn_flows(rng, n, 8, 5, |rng| (rng.gen_range_usize(8..96), 0));
            (cfg, flows)
        }
        _ => {
            let cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_seed(seed);
            let n = rng.gen_range_usize(6..13);
            // Rack 0 to rack 11 and back: every flow crosses a core.
            let flows = drawn_flows(rng, n, 9, 20, |rng| {
                let (a, b) = (rng.gen_range_usize(0..8), 88 + rng.gen_range_usize(0..8));
                if rng.gen_bool(0.5) {
                    (a, b)
                } else {
                    (b, a)
                }
            });
            // Flow 0's ToR uplink goes down for good and its users are
            // re-pinned; later flow 1's core downlink flaps.
            let probe = Engine::new(cfg.clone(), flows.clone());
            let uplink = probe.path(0, Direction::Fwd)[1];
            let downlink = probe.path(1, Direction::Fwd)[2];
            let us =
                |rng: &mut SimRng, r: std::ops::Range<u64>| SimTime::from_us(rng.gen_range_u64(r));
            let schedule = faults::FaultSchedule::new()
                .link_down_rerouted(
                    us(rng, 60..150),
                    uplink.node.0,
                    uplink.port.0,
                    us(rng, 50..150),
                )
                .link_flap(
                    us(rng, 300..600),
                    downlink.node.0,
                    downlink.port.0,
                    us(rng, 5..40),
                );
            (cfg.with_faults(schedule), flows)
        }
    }
}

/// Flow records, forensic records and the whole aggregate (samples
/// included) of two runs of one cell must agree.
pub(super) fn assert_same_run(label: &str, a: &SimResult, b: &SimResult) {
    assert_eq!(
        format!("{:?}", a.flows),
        format!("{:?}", b.flows),
        "{label}: flow records"
    );
    assert_eq!(a.forensics, b.forensics, "{label}: forensics");
    assert_eq!(
        format!("{:?}", a.agg),
        format!("{:?}", b.agg),
        "{label}: aggregate"
    );
}
