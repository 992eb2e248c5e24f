//! Golden-value regression tests for the D1 determinism fixes.
//!
//! `WindowSender::tx_order` and the workload mix's incast grouping were
//! rebuilt on `BTreeMap` (`clippy.toml`'s D1: no `HashMap` without an
//! `#[expect]` saying it is never iterated). These tests pin the *exact* aggregate
//! counters and workload fingerprint captured on the `HashMap` tree, so the
//! swap is proven behavior-preserving byte for byte — and any future change
//! that perturbs scheduling or generation order fails loudly. (`tx_order`
//! has since become a ring indexed by segment; the same goldens hold it.)

use dcsim::{small_single_switch, Engine, FlowSpec, SimConfig};
use eventsim::SimTime;
use transport::TransportKind;
use workload::{standard_mix, FlowSizeCdf, MixParams};

/// A TLT incast that exercises `tx_order` heavily: color drops force
/// important ACK-clocking, whose loss barrier reads and trims it.
fn tlt_incast() -> dcsim::SimResult {
    let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
        .with_topology(small_single_switch(17))
        .with_tlt()
        .with_seed(11);
    cfg.switch.buffer_bytes = 400_000;
    cfg.switch.color_threshold = Some(80_000);
    let flows: Vec<FlowSpec> = (1..17)
        .flat_map(|s| {
            [
                FlowSpec::new(s, 0, 24_000, SimTime::ZERO, true),
                FlowSpec::new(s, 0, 24_000, SimTime::from_us(2), true),
            ]
        })
        .collect();
    Engine::new(cfg, flows).run()
}

#[test]
fn tx_order_btreemap_swap_preserves_aggregate_stats() {
    // Golden values recorded before the HashMap -> BTreeMap swap.
    let res = tlt_incast();
    let a = &res.agg;
    assert_eq!(a.timeouts, 0);
    assert_eq!(a.fast_retx, 227);
    assert_eq!(a.data_pkts_sent, 795);
    assert_eq!(a.important_pkts, 207);
    assert_eq!(a.unimportant_pkts, 588);
    assert_eq!(a.clocking_pkts, 24);
    assert_eq!(a.clocking_bytes, 24);
    assert_eq!(a.drops_color, 227);
    assert_eq!(a.drops_dt, 0);
    assert_eq!(a.drops_overflow, 0);
    assert_eq!(a.drops_green_data, 0);
    assert_eq!(a.green_data_pkts, 200);
    assert_eq!(a.ce_marked, 0);
    assert_eq!(a.duration, SimTime::from_ns(422_282));
}

#[test]
fn tx_order_btreemap_swap_is_run_to_run_deterministic() {
    let a = tlt_incast();
    let b = tlt_incast();
    assert_eq!(format!("{:?}", a.agg), format!("{:?}", b.agg));
    for (x, y) in a.flows.iter().zip(b.flows.iter()) {
        assert_eq!(x.end, y.end);
        assert_eq!(x.retx, y.retx);
    }
}

#[test]
fn standard_mix_fingerprint_unchanged_by_btreemap_swap() {
    // Order-sensitive FNV-style fold over every generated flow; recorded
    // before the `by_start` grouping moved to BTreeMap.
    let mut p = MixParams::reduced(400);
    p.seed = 5;
    let flows = standard_mix(&FlowSizeCdf::web_search(), p);
    assert_eq!(flows.len(), 4536);
    assert_eq!(flows.iter().map(|f| f.bytes).sum::<u64>(), 564_957_318);
    let fp: u64 = flows.iter().enumerate().fold(0u64, |acc, (i, f)| {
        acc.wrapping_mul(0x100000001B3).wrapping_add(
            f.bytes
                ^ f.start.as_ns()
                ^ ((f.src as u64) << 32)
                ^ (f.dst as u64)
                ^ ((f.fg as u64) << 63)
                ^ i as u64,
        )
    });
    assert_eq!(fp, 0x7ed1624ea0934bca);
}

// ---------------------------------------------------------------------
// Drain / horizon goldens for the lazy `TxDone` (DESIGN §12).
//
// Recorded on the eager engine (PR 11), where every transmission pushed a
// `TxDone` and an idle one could be the last event executed — so
// `agg.duration`, the pause close-out and `link_pause_fraction` depended on
// it. The lazy engine must reproduce every value below exactly; a missing
// end-of-run clock fix-up shows up here first (the severed flow's last RTO
// probe serializes onto a dead wire: a `TxDone`, no `Deliver`).
// ---------------------------------------------------------------------

/// Everything about a run that the end-of-run clock can move.
fn clock_golden(res: &dcsim::SimResult) -> String {
    format!(
        "dur={} ev={} pause={:#018x}",
        res.agg.duration.as_ns(),
        res.agg.events_scheduled,
        res.agg.link_pause_fraction.to_bits()
    )
}

/// [`clock_golden`] plus every flow's `(start, end, timeouts)`, as one
/// comparable string.
fn drain_golden(res: &dcsim::SimResult) -> String {
    let flows: Vec<String> = res
        .flows
        .iter()
        .map(|f| {
            format!(
                "({},{},{})",
                f.start.as_ns(),
                f.end.map_or(-1, |e| e.as_ns() as i64),
                f.timeouts
            )
        })
        .collect();
    format!("{} flows=[{}]", clock_golden(res), flows.join(","))
}

#[test]
fn golden_permanent_link_down_drain() {
    let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(4));
    cfg.max_time = SimTime::from_ms(50);
    cfg.faults = dcsim::FaultSchedule::new().link_down(SimTime::from_us(50), 3, 0);
    let flows = (1..=3)
        .map(|s| FlowSpec::new(s, 0, 64_000, SimTime::ZERO, true))
        .collect();
    let res = Engine::new(cfg, flows).run();
    assert_eq!(
        drain_golden(&res),
        "dur=28049258 ev=951 pause=0x0000000000000000 flows=[(0,109416,0),(0,-1,3),(0,110150,0)]"
    );
}

#[test]
fn golden_max_time_truncation() {
    let mut cfg = SimConfig::tcp_family(TransportKind::Tcp).with_topology(small_single_switch(2));
    cfg.max_time = SimTime::from_us(50);
    let flows = vec![FlowSpec::new(0, 1, 10_000_000, SimTime::ZERO, false)];
    let res = Engine::new(cfg, flows).run();
    assert_eq!(
        drain_golden(&res),
        "dur=46576 ev=132 pause=0x0000000000000000 flows=[(0,-1,0)]"
    );
}

#[test]
fn golden_pause_storm_release() {
    let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
    cfg.faults =
        dcsim::FaultSchedule::new().pause_storm(SimTime::from_us(100), 0, 1, SimTime::from_us(300));
    let flows = vec![FlowSpec::new(1, 0, 1_000_000, SimTime::ZERO, false)];
    let res = Engine::new(cfg, flows).run();
    assert_eq!(
        drain_golden(&res),
        "dur=653184 ev=6260 pause=0x3fdd64fc3ccd4816 flows=[(0,633164,0)]"
    );
}

/// DCTCP+TLT on the reduced leaf–spine web-search mix (60 background
/// flows, seed 3), cut at 2 ms: config and flows.
fn reduced_mix_cell() -> (SimConfig, Vec<FlowSpec>) {
    let mut p = MixParams::reduced(60);
    p.seed = 3;
    let link = netsim::link::LinkSpec::new(p.link_bw_bps, SimTime::from_us(10));
    let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
        .with_topology(netsim::topology::TopologySpec::LeafSpine {
            cores: p.cores,
            tors: p.tors,
            hosts_per_tor: p.hosts / p.tors,
            host_link: link,
            fabric_link: link,
        })
        .with_tlt()
        .with_seed(3);
    cfg.max_time = SimTime::from_ms(2);
    (cfg, standard_mix(&FlowSizeCdf::web_search(), p))
}

/// One `mix_faults`-style cell (benchmark/src/workloads.rs): DCTCP+TLT on
/// the reduced leaf–spine mix under a rerouted link-down, burst loss, a
/// flap and a pause storm, cut short by the horizon so truncated flows and
/// a still-paused port are both in the picture.
#[test]
fn golden_faulted_mix_cell() {
    let faults = dcsim::FaultSchedule::new()
        .link_down_rerouted(SimTime::from_us(300), 4, 8, SimTime::from_us(200))
        .burst_loss(SimTime::from_us(100), 5, 0, 0.02, 8.0, 0.5)
        .link_flap(SimTime::from_us(600), 6, 9, SimTime::from_us(150))
        .pause_storm(SimTime::from_us(400), 7, 0, SimTime::from_us(300));
    let (cfg, flows) = reduced_mix_cell();
    let res = Engine::new(cfg.with_faults(faults), flows).run();
    let a = &res.agg;
    // Per-flow (start, end, timeouts), folded order-sensitively.
    let fp = res.flows.iter().fold(0u64, |acc, f| {
        acc.wrapping_mul(0x100000001B3)
            .wrapping_add(f.start.as_ns() ^ f.end.map_or(u64::MAX, |e| e.as_ns()).rotate_left(21))
            .wrapping_add(f.timeouts)
    });
    let done = res.flows.iter().filter(|f| f.end.is_some()).count();
    assert_eq!(
        format!(
            "{} flows={} done={done} fp={fp:#018x} down={} wire={} reroutes={}",
            clock_golden(&res),
            res.flows.len(),
            a.down_drops,
            a.wire_drops,
            a.reroutes,
        ),
        "dur=1999989 ev=285137 pause=0x3fc3333a1ee23db0 flows=812 done=740 fp=0x485664da8398ebbb down=98 wire=39 reroutes=126"
    );
}

// ---------------------------------------------------------------------
// Metrics-export goldens (DESIGN §10). Recorded on the engine that called
// `Registry::observe` / `gauge_max` by name on every switch enqueue and
// pause end; the per-port accumulators that publish once at collect must
// reproduce every key, every bucket and every byte of the `tlt-metrics/v1`
// export. The string pins the key counts, the export's length and an
// FNV-1a hash of its bytes, plus the number of pause episodes observed.
// ---------------------------------------------------------------------

/// Runs `eng` with the metrics registry and an event list attached;
/// returns the result and the `(LinkPause, LinkResume)` event counts.
fn run_observed(mut eng: Engine) -> (dcsim::SimResult, (u64, u64)) {
    eng.set_metrics();
    let (tracer, events) = telemetry::Tracer::new(Vec::new());
    eng.set_tracer(tracer);
    let res = eng.run();
    let events: &Vec<(SimTime, telemetry::TraceEvent)> = &events.borrow();
    let count = |want: fn(&telemetry::TraceEvent) -> bool| {
        events.iter().filter(|(_, ev)| want(ev)).count() as u64
    };
    let pauses = count(|ev| matches!(ev, telemetry::TraceEvent::LinkPause { .. }));
    let resumes = count(|ev| matches!(ev, telemetry::TraceEvent::LinkResume { .. }));
    (res, (pauses, resumes))
}

fn metrics_golden(res: &dcsim::SimResult) -> String {
    let reg = res.metrics.as_ref().expect("metrics enabled");
    let json = reg.to_json();
    let fnv = json.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let pause_obs: u64 = reg
        .hists()
        .filter(|(k, _)| k.starts_with("pfc_pause_ns/"))
        .map(|(_, h)| h.count)
        .sum();
    format!(
        "keys={}c/{}g/{}h pause_obs={pause_obs} bytes={} fnv={fnv:#018x}",
        reg.counters().count(),
        reg.gauges().count(),
        reg.hists().count(),
        json.len(),
    )
}

#[test]
fn golden_metrics_lossy_dctcp_tlt_leaf_spine() {
    let (cfg, flows) = reduced_mix_cell();
    let eng = Engine::new(cfg, flows);
    let (res, _) = run_observed(eng);
    assert_eq!(
        metrics_golden(&res),
        "keys=24c/97g/96h pause_obs=0 bytes=26908 fnv=0x992102d59e64e242"
    );
}

/// A PFC incast (the `pfc_is_lossless_under_heavy_incast` burst) cut by
/// `max_time` after all 32 senders were paused and before nine of them
/// were resumed: each truncated episode's duration-so-far is observed at
/// collect.
#[test]
fn golden_metrics_pfc_incast_truncated_pause() {
    let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
        .with_topology(small_single_switch(33))
        .with_pfc();
    cfg.switch.buffer_bytes = 700_000;
    cfg.max_time = SimTime::from_us(80);
    let flows = (1..33)
        .flat_map(|s| [FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true); 2])
        .collect();
    let (res, (pauses, resumes)) = run_observed(Engine::new(cfg, flows));
    assert_eq!((pauses, resumes), (32, 23), "nine ports still paused");
    assert_eq!(
        metrics_golden(&res),
        "keys=24c/34g/65h pause_obs=32 bytes=8234 fnv=0xfbfaa536ad4c225a"
    );
}

#[test]
fn golden_metrics_pause_storm() {
    let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(3));
    cfg.faults =
        dcsim::FaultSchedule::new().pause_storm(SimTime::from_us(100), 0, 1, SimTime::from_us(300));
    let flows = vec![FlowSpec::new(1, 0, 1_000_000, SimTime::ZERO, false)];
    let (res, (pauses, resumes)) = run_observed(Engine::new(cfg, flows));
    assert_eq!((pauses, resumes), (1, 1), "one storm episode, released");
    assert_eq!(
        metrics_golden(&res),
        "keys=24c/3g/3h pause_obs=1 bytes=1087 fnv=0x6c351ed26b26791a"
    );
}

// ---------------------------------------------------------------------
// Trace-bytes golden. `--trace` writes each run as the JSONL bytes of a
// `BufferSink`, bracketed by `run_start` and `run_end`; the `--jobs` checks
// only compare those bytes with themselves. This pins them: the length and
// an FNV-1a hash of one traced cell, plus how many lines of each kind the
// cell has to exercise.
// ---------------------------------------------------------------------

/// A PFC incast under wire loss, a link flap and a pause storm, with port
/// samples every 100 µs, traced as `bench::runner` traces a `--trace` run.
#[test]
fn golden_trace_bytes_pfc_incast_with_faults() {
    let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
        .with_topology(small_single_switch(9))
        .with_pfc()
        .with_seed(6);
    cfg.max_time = SimTime::from_ms(50);
    cfg.switch.buffer_bytes = 300_000;
    cfg.wire_loss_rate = 0.002;
    cfg.trace_sample_every = Some(SimTime::from_us(100));
    cfg.faults = dcsim::FaultSchedule::new()
        .link_flap(SimTime::from_us(200), 3, 0, SimTime::from_us(150))
        .pause_storm(SimTime::from_us(100), 0, 1, SimTime::from_us(300));
    let flows = workload::incast_burst(60, 8, 32_000, 6);

    let (tracer, sink) = telemetry::Tracer::new(telemetry::BufferSink::new());
    tracer.emit(SimTime::ZERO, || telemetry::TraceEvent::RunStart {
        label: "golden/pfc_incast_faults".to_string(),
        seed: cfg.seed,
    });
    let mut eng = Engine::new(cfg, flows);
    eng.set_tracer(tracer.clone());
    let agg = eng.run().agg;
    tracer.emit(agg.duration, || telemetry::TraceEvent::RunEnd {
        drops_color: agg.drops_color,
        drops_dt: agg.drops_dt,
        drops_overflow: agg.drops_overflow,
        wire_drops: agg.wire_drops,
        down_drops: agg.down_drops,
        pause_frames: agg.pause_frames,
        timeouts: agg.timeouts,
        rto_causes: agg.rto_causes,
    });
    let bytes = sink.borrow_mut().take_bytes();

    let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    });
    let text = std::str::from_utf8(&bytes).expect("trace is utf-8");
    // The codec is its own inverse on every line the engine writes: decode,
    // re-encode, and the bytes come back unchanged.
    for line in text.lines() {
        let (t, ev) = telemetry::TraceEvent::from_jsonl(line)
            .unwrap_or_else(|| panic!("undecodable trace line {line}"));
        assert_eq!(ev.to_jsonl(t), line, "re-encoding moved the bytes");
    }
    let lines = |ev: &str| text.matches(&format!("\"ev\":\"{ev}\"")).count();
    assert_eq!(
        format!(
            "bytes={} fnv={fnv:#018x} drop={} xoff={} fault={} port_sample={}",
            bytes.len(),
            lines("drop"),
            lines("xoff"),
            lines("fault"),
            lines("port_sample"),
        ),
        "bytes=1025647 fnv=0xcde16f8e752030e4 drop=350 xoff=16 fault=4 port_sample=4005"
    );
}
