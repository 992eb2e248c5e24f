//! The paper's qualitative claims, asserted at reduced scale.
//!
//! Each test pins one *directional* result from §7 — who wins, and roughly
//! by how much — rather than absolute numbers, which depend on scale.

use std::collections::{BTreeMap, BTreeSet};

use dcsim::{small_single_switch, Engine, FlowSpec, SimConfig};
use eventsim::{SimRng, SimTime};
use netsim::topology::TopologySpec;
use netsim::LinkSpec;
use netstats::summarize_flows;
use telemetry::{RtoCause, TimerKind, TraceEvent, TraceSink, Tracer};
use transport::TransportKind;
use workload::{standard_mix, FlowSizeCdf, MixParams};

/// A synchronized short-flow incast that overruns a shallow buffer — the
/// §7.4 microbenchmark shape.
fn burst(senders: usize, flows_each: usize, bytes: u64) -> Vec<FlowSpec> {
    (1..=senders)
        .flat_map(|s| (0..flows_each).map(move |_| FlowSpec::new(s, 0, bytes, SimTime::ZERO, true)))
        .collect()
}

fn incast_cfg(kind: TransportKind, tlt: bool, senders: usize) -> SimConfig {
    let mut cfg = SimConfig::tcp_family(kind).with_topology(small_single_switch(senders + 1));
    cfg.switch.buffer_bytes = 800_000;
    cfg.switch.ecn = netsim::switch::EcnConfig::Threshold { k: 100_000 };
    if tlt {
        cfg = cfg.with_tlt();
        cfg.switch.color_threshold = Some(150_000);
    }
    cfg
}

/// §7.4 / Figure 14: TLT eliminates incast timeouts and collapses the tail
/// FCT for both TCP and DCTCP.
#[test]
fn tlt_eliminates_incast_timeouts_tcp_and_dctcp() {
    for kind in [TransportKind::Tcp, TransportKind::Dctcp] {
        let base = Engine::new(incast_cfg(kind, false, 48), burst(48, 2, 8_000)).run();
        let tlt = Engine::new(incast_cfg(kind, true, 48), burst(48, 2, 8_000)).run();
        assert!(base.agg.timeouts > 0, "{kind:?}: baseline must time out");
        assert_eq!(tlt.agg.timeouts, 0, "{kind:?}: TLT must not");
        let base_p99 = summarize_flows(base.flows.iter(), |f| f.fg).p99;
        let tlt_p99 = summarize_flows(tlt.flows.iter(), |f| f.fg).p99;
        assert!(
            tlt_p99 < base_p99 / 4.0,
            "{kind:?}: TLT p99 {tlt_p99} should be <25% of baseline {base_p99}"
        );
    }
}

/// §4.2 / Table 1: important packets are not dropped at the paper's
/// threshold settings, and the reserved room shrinks as K grows.
#[test]
fn important_drops_rise_with_color_threshold() {
    let run = |k: u64| {
        let mut cfg = incast_cfg(TransportKind::Dctcp, true, 64);
        cfg.switch.buffer_bytes = 500_000;
        cfg.switch.color_threshold = Some(k);
        Engine::new(cfg, burst(64, 2, 8_000)).run()
    };
    // K small: plenty of headroom for green packets.
    let small = run(100_000);
    assert_eq!(
        small.agg.drops_green_data, 0,
        "reserved room protects green"
    );
    // K close to the DT cap (~250 kB at 500 kB pool): reds fill the queue
    // and green packets start dying.
    let large = run(240_000);
    assert!(
        large.agg.drops_green_data >= small.agg.drops_green_data,
        "less reserved room cannot mean fewer important drops"
    );
    assert!(
        large.agg.drops_color <= small.agg.drops_color,
        "a larger K proactively drops fewer red packets"
    );
}

/// §7.1 / Figure 7b-c: with PFC on, TLT's proactive dropping keeps queues
/// short, so fewer PAUSE frames and less paused time.
#[test]
fn tlt_reduces_pause_frames_under_pfc() {
    let run = |tlt: bool| {
        let mut cfg = incast_cfg(TransportKind::Tcp, tlt, 48).with_pfc();
        cfg.switch.buffer_bytes = 1_500_000;
        Engine::new(cfg, burst(48, 2, 16_000)).run()
    };
    let base = run(false);
    let tlt = run(true);
    assert!(base.agg.pause_frames > 0, "PFC must engage in the baseline");
    assert!(
        tlt.agg.pause_frames < base.agg.pause_frames,
        "TLT {} PAUSE frames should undercut baseline {}",
        tlt.agg.pause_frames,
        base.agg.pause_frames
    );
    assert!(tlt.agg.link_pause_fraction <= base.agg.link_pause_fraction);
}

/// §5.1: TLT marks a small minority of packets, and the one-in-flight
/// discipline holds (importants ≈ one per RTT per flow, not per packet).
#[test]
fn tlt_marks_few_packets_on_long_flows() {
    let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
        .with_topology(small_single_switch(2))
        .with_tlt();
    let res = Engine::new(
        cfg,
        vec![FlowSpec::new(0, 1, 5_000_000, SimTime::ZERO, false)],
    )
    .run();
    let frac = res.agg.important_fraction();
    assert!(
        frac < 0.10,
        "long-flow important fraction {frac} should be well under 10%"
    );
    assert!(res.agg.important_pkts > 0);
}

/// §2.2 / Figure 2: an aggressive *fixed* RTO cuts the foreground tail but
/// multiplies timeouts.
#[test]
fn fixed_rto_trades_timeouts_for_tail() {
    let run = |rto: transport::RtoMode| {
        let mut cfg = incast_cfg(TransportKind::Dctcp, false, 48);
        cfg.rto = rto;
        Engine::new(cfg, burst(48, 2, 8_000)).run()
    };
    let base = run(transport::RtoMode::linux_default());
    let fixed = run(transport::RtoMode::Fixed(SimTime::from_us(160)));
    let base_p99 = summarize_flows(base.flows.iter(), |f| f.fg).p99;
    let fixed_p99 = summarize_flows(fixed.flows.iter(), |f| f.fg).p99;
    assert!(fixed_p99 < base_p99, "aggressive RTO improves the tail");
    // In a single synchronized burst each stranded tail costs exactly one
    // timeout whatever the RTO, so counts match; the *excess* spurious
    // timeouts the paper reports appear under sustained traffic and are
    // asserted by the fig02 experiment. Here: never fewer.
    assert!(
        fixed.agg.timeouts >= base.agg.timeouts,
        "aggressive RTO cannot reduce timeouts ({} vs {})",
        fixed.agg.timeouts,
        base.agg.timeouts
    );
}

/// §7.1 (RoCE): TLT removes vanilla DCQCN's tail-loss timeouts on a lossy
/// fabric.
#[test]
fn tlt_helps_dcqcn_incast() {
    let mk = |tlt: bool| {
        let mut cfg =
            SimConfig::roce_family(TransportKind::DcqcnGbn).with_topology(small_single_switch(33));
        cfg.switch.buffer_bytes = 500_000;
        if tlt {
            cfg = cfg.with_tlt();
            cfg.switch.color_threshold = Some(150_000);
        }
        Engine::new(cfg, burst(32, 2, 8_000)).run()
    };
    let base = mk(false);
    let tlt = mk(true);
    assert!(base.agg.timeouts > 0, "GBN incast should strand tails");
    assert!(
        tlt.agg.timeouts < base.agg.timeouts / 2,
        "TLT at least halves DCQCN timeouts ({} vs {})",
        tlt.agg.timeouts,
        base.agg.timeouts
    );
}

/// The masking-loss discussion (§5.3): TLT never leaves a flow stranded —
/// whatever is dropped, every flow still completes.
#[test]
fn no_flow_is_ever_stranded_with_tlt() {
    for seed in 1..=5u64 {
        let cfg = incast_cfg(TransportKind::Dctcp, true, 32).with_seed(seed);
        let res = Engine::new(cfg, burst(32, 3, 8_000)).run();
        assert!(
            res.flows.iter().all(|f| f.end.is_some()),
            "seed {seed}: all flows complete"
        );
    }
}

/// TLT's timeout-less guarantee has a capacity (§4.2's reserved room, at
/// one port): at its dynamic-threshold cap a congested egress port holds
/// the green bytes of a bounded number of flows, and past that bound every
/// further flow loses a green frame. Precondition of the guarantee: n ≤ n*
/// = 1,648 at B = 4.5 MB, α = 1 (the default switch, where the one
/// congested port's cap is α·B/(1+α) = 2.25 MB). Pinned on the repo
/// benchmark's `incast_burst` shape — `n` synchronized 32 kB flows from
/// eight servers into one host — for TCP+TLT and DCTCP+TLT at two seeds:
/// 1,600 flows lose no green frame and take no timeout; 1,700 flows lose
/// exactly 1,700 − 1,648 = 52 green frames.
///
/// Past the bound the precondition holds per flow, read off the trace: the
/// flows that time out are exactly the flows that lost a green frame, each
/// lost one, and its first RTO is rooted at that dynamic-threshold drop.
/// Every further RTO is the same flow's own, rooted at a colour drop of
/// one of its red frames — no other flow takes one, and none is spurious
/// (`delay`) or unexplained. Those frames are red because nothing re-marks
/// the flow: every frame it sends after its green drop, RTO retransmissions
/// included, carries `TltMark::None` (1,137–1,165 marks a cell, all red).
#[test]
fn tlt_green_drops_start_at_the_ports_capacity() {
    for kind in [TransportKind::Tcp, TransportKind::Dctcp] {
        for seed in [7, 8] {
            let cfg = SimConfig::tcp_family(kind)
                .with_topology(small_single_switch(9))
                .with_tlt()
                .with_seed(seed);
            let engine =
                |n: usize| Engine::new(cfg.clone(), workload::incast_burst(n, 8, 32_000, seed));
            let at = format!("{kind:?} seed {seed}");
            let below = engine(1_600).run();
            assert_eq!(below.agg.drops_green_data, 0, "{at}, n = 1,600");
            assert_eq!(below.agg.timeouts, 0, "{at}, n = 1,600");

            let (tracer, sink) = Tracer::new(Vec::new());
            let mut past = engine(1_700);
            past.set_tracer(tracer);
            let agg = past.run().agg;
            assert_eq!(agg.drops_green_data, 52, "{at}, n = 1,700");
            let mut green_drops: BTreeMap<u32, u64> = BTreeMap::new();
            let mut timed_out = BTreeSet::new();
            let mut rtos: Vec<(u32, RtoCause)> = Vec::new();
            let mut marked_after_drop = 0u64;
            for (_, ev) in sink.borrow().iter() {
                match *ev {
                    TraceEvent::Drop {
                        flow, green: true, ..
                    } => {
                        *green_drops.entry(flow).or_default() += 1;
                    }
                    // Its one important frame lost, a flow gets no echo to
                    // re-arm `WindowTltSender`, and an RTO leaves TLT state
                    // alone: everything it sends afterwards is red.
                    TraceEvent::TltMark {
                        flow, important, ..
                    } if green_drops.contains_key(&flow) => {
                        assert!(!important, "{at}: flow {flow} marked green after its drop");
                        marked_after_drop += 1;
                    }
                    TraceEvent::Timeout { flow, .. } => {
                        timed_out.insert(flow);
                    }
                    TraceEvent::RtoForensic { flow, cause, .. } => rtos.push((flow, cause)),
                    _ => {}
                }
            }
            assert!(
                timed_out.iter().eq(green_drops.keys()),
                "{at}: timed-out flows == green-drop flows"
            );
            assert!(
                green_drops.values().all(|&n| n == 1),
                "{at}: one green drop each"
            );
            let mut first = BTreeSet::new();
            for &(flow, cause) in &rtos {
                let want = if first.insert(flow) {
                    RtoCause::Dynamic
                } else {
                    RtoCause::Color
                };
                assert_eq!(cause, want, "{at}: flow {flow}'s RTO root");
            }
            assert!(
                marked_after_drop >= 52,
                "{at}: {marked_after_drop} marks after"
            );
            let causes = agg.rto_causes;
            assert_eq!(causes.get(RtoCause::Dynamic), agg.drops_green_data, "{at}");
            assert_eq!(
                causes.get(RtoCause::Dynamic) + causes.get(RtoCause::Color),
                agg.timeouts,
                "{at}"
            );
            assert_eq!(
                causes.get(RtoCause::Delay) + causes.get(RtoCause::Unknown),
                0,
                "{at}"
            );
        }
    }
}

/// The repo benchmark's full-scale `mix_tcp` flows for `seed`, built as
/// `benchmark/src/workloads.rs` builds them: `MixParams::reduced(100)` on
/// its leaf–spine fabric at 10 µs links, with the background sizes replaced
/// by a stratified, seed-shuffled sample of the CDF (`stratify_sizes`,
/// `workloads.rs:147`, copied here).
fn bench_mix_tcp(seed: u64) -> (TopologySpec, Vec<FlowSpec>) {
    let mut p = MixParams::reduced(100);
    p.seed = seed;
    let cdf = FlowSizeCdf::web_search();
    let mut flows = standard_mix(&cdf, p);
    let bg: Vec<usize> = (0..flows.len()).filter(|&i| !flows[i].fg).collect();
    let n = bg.len();
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| cdf.quantile((i as f64 + 0.5) / n as f64).max(100))
        .collect();
    let mut rng = SimRng::seed_from(seed).fork(0x57A7);
    for i in (1..n).rev() {
        sizes.swap(i, rng.gen_range_usize(0..i + 1));
    }
    for (i, s) in bg.into_iter().zip(sizes) {
        flows[i].bytes = s;
    }
    let link = LinkSpec::new(p.link_bw_bps, SimTime::from_us(10));
    let topology = TopologySpec::LeafSpine {
        cores: p.cores,
        tors: p.tors,
        hosts_per_tor: p.hosts / p.tors,
        host_link: link,
        fabric_link: link,
    };
    (topology, flows)
}

/// What a timeout is read from: each flow's latest RTO arm time, and every
/// timeout (flow, fire time, the RTO value in force) and its forensic root.
#[derive(Default)]
struct RtoSink {
    armed: BTreeMap<u32, SimTime>,
    timeouts: Vec<(u32, SimTime, SimTime)>,
    roots: Vec<(u32, RtoCause)>,
}

impl TraceSink for RtoSink {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        match *ev {
            TraceEvent::TimerArm {
                flow,
                kind: TimerKind::Rto,
                ..
            } => {
                self.armed.insert(flow, t);
            }
            TraceEvent::Timeout { flow, .. } => {
                self.timeouts.push((flow, t, t - self.armed[&flow]));
            }
            TraceEvent::RtoForensic { flow, cause, .. } => self.roots.push((flow, cause)),
            _ => {}
        }
    }
}

/// The repo benchmark's one stray +TLT RTO, classified. Over seeds 1–320
/// of the full-scale `mix_tcp` cells (1,228 flows, DCTCP, {lossy, PFC} ×
/// {base, +TLT}), only seed 205 gives a +TLT cell any RTO: one in each,
/// both on flow 50 (a 640,300-byte background flow), and neither follows a
/// lost frame, so neither is one the capacity law above predicts.
///
/// - Lossy +TLT: 0 green drops among 5,156 colour drops. The RTO fires at
///   7,126,524 ns with the 4 ms `RTO_min` in force, armed at 3,126,524 ns;
///   it is `delay`-rooted. The flow's segments from byte 43,200 on reached
///   its ToR about 2 ms after they were sent, and no ACK came back before
///   the timer ran out. The baseline cell takes 30 RTOs (29 `dt`, 1
///   `delay`).
/// - PFC+TLT: 0 green drops, 26 pause frames. The RTO fires at 7,108,844
///   ns, again with 4 ms in force, and is `pfc`-rooted: no loss, a paused
///   path while the timer ran. The PFC baseline takes none (75 pause
///   frames): this is the stray RTO in a +TLT cell whose baseline had none.
///
/// TLT keeps important frames from being dropped; a timeout that no loss
/// caused, by queueing delay past `RTO_min` or by a pause, is outside its
/// mechanism. Both cells pass the benchmark's check (1 ≤ 1,228 / 1,000).
#[test]
fn mix_tcp_seed_205_stray_rtos_follow_no_loss() {
    let seed = 205;
    let (topology, flows) = bench_mix_tcp(seed);
    assert_eq!(flows.len(), 1_228);
    for (pfc, at_ns, cause) in [
        (false, 7_126_524, RtoCause::Delay),
        (true, 7_108_844, RtoCause::PfcStall),
    ] {
        let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
            .with_topology(topology.clone())
            .with_tlt()
            .with_seed(seed);
        if pfc {
            cfg = cfg.with_pfc();
        }
        let (tracer, sink) = Tracer::new(RtoSink::default());
        let mut engine = Engine::new(cfg, flows.clone());
        engine.set_tracer(tracer);
        let agg = engine.run().agg;
        let at = if pfc { "PFC+TLT" } else { "lossy +TLT" };
        assert_eq!(agg.drops_green_data, 0, "{at}");
        let sink = sink.borrow();
        let rto = (50, SimTime::from_ns(at_ns), SimTime::from_ms(4));
        assert_eq!(sink.timeouts, [rto], "{at}: (flow, fired, RTO in force)");
        assert_eq!(sink.roots, [(50, cause)], "{at}");
        if pfc {
            assert_eq!(agg.pause_frames, 26, "{at}");
        } else {
            assert_eq!(agg.drops_color, 5_156, "{at}");
        }
    }
}
