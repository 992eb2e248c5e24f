//! The paper's qualitative claims, asserted at reduced scale.
//!
//! Each test pins one *directional* result from §7 — who wins, and roughly
//! by how much — rather than absolute numbers, which depend on scale.

use dcsim::{small_single_switch, Engine, FlowSpec, SimConfig};
use eventsim::SimTime;
use netstats::summarize_flows;
use transport::TransportKind;

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
#[test]
fn tlt_green_drops_start_at_the_ports_capacity() {
    for kind in [TransportKind::Tcp, TransportKind::Dctcp] {
        for seed in [7, 8] {
            let run = |n: usize| {
                let cfg = SimConfig::tcp_family(kind)
                    .with_topology(small_single_switch(9))
                    .with_tlt()
                    .with_seed(seed);
                Engine::new(cfg, workload::incast_burst(n, 8, 32_000, seed)).run()
            };
            let below = run(1_600);
            assert_eq!(
                below.agg.drops_green_data, 0,
                "{kind:?} seed {seed}, n = 1,600"
            );
            assert_eq!(below.agg.timeouts, 0, "{kind:?} seed {seed}, n = 1,600");
            let past = run(1_700);
            assert_eq!(
                past.agg.drops_green_data, 52,
                "{kind:?} seed {seed}, n = 1,700"
            );
        }
    }
}
