//! Flight-recorder integration tests: the tracing layer observed through a
//! real engine run must be deterministic, complete, and consistent with the
//! engine's own aggregate counters.

use std::collections::BTreeMap;

use dcsim::{small_single_switch, Engine, SimConfig};
use eventsim::SimTime;
use telemetry::inspect::inspect_str;
use telemetry::{
    BufferSink, CountingSink, DropWhy, RtoCauseCounts, TraceCounts, TraceEvent, TraceSink, Tracer,
};
use transport::TransportKind;
use workload::incast_burst;

/// A config that exercises drops, CE marking, and timeouts: a DCTCP incast
/// into one switch, tight enough to overflow the color-blind thresholds.
fn incast_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(9));
    cfg.max_time = SimTime::from_ms(50);
    cfg.with_seed(seed)
}

/// The same shape in lossless (PFC) mode, to exercise XOFF/XON.
fn pfc_cfg(seed: u64) -> SimConfig {
    incast_cfg(seed).with_pfc()
}

fn jsonl_run(cfg: SimConfig, flows: Vec<dcsim::FlowSpec>) -> (Vec<u8>, dcsim::AggregateStats) {
    let (tracer, sink) = Tracer::new(BufferSink::new());
    let mut eng = Engine::new(cfg, flows);
    eng.set_tracer(tracer);
    let res = eng.run();
    let bytes = sink.borrow_mut().take_bytes();
    (bytes, res.agg)
}

#[test]
fn trace_is_byte_identical_across_identical_runs() {
    let run = || jsonl_run(incast_cfg(7), incast_burst(60, 8, 32_000, 7));
    let (a, agg_a) = run();
    let (b, agg_b) = run();
    assert!(!a.is_empty(), "trace must not be empty");
    assert!(
        a.len() > 100_000,
        "incast trace suspiciously small: {} bytes",
        a.len()
    );
    assert_eq!(a, b, "same config + seed must produce identical traces");
    assert_eq!(agg_a.timeouts, agg_b.timeouts);
    assert_eq!(agg_a.drops_color, agg_b.drops_color);
}

#[test]
fn different_seeds_diverge() {
    let (a, _) = jsonl_run(incast_cfg(7), incast_burst(60, 8, 32_000, 7));
    let (b, _) = jsonl_run(incast_cfg(8), incast_burst(60, 8, 32_000, 8));
    assert_ne!(a, b, "different seeds should produce different traces");
}

fn assert_counts_match(cfg: SimConfig, flows: Vec<dcsim::FlowSpec>) {
    let n_flows = flows.len() as u64;
    let (tracer, sink) = Tracer::new(CountingSink::default());
    let mut eng = Engine::new(cfg, flows);
    eng.set_tracer(tracer);
    let agg = eng.run().agg;
    let c = &sink.borrow().totals;
    assert_eq!(c.drops_color, agg.drops_color, "color drops");
    assert_eq!(c.drops_dt, agg.drops_dt, "dynamic-threshold drops");
    assert_eq!(c.drops_overflow, agg.drops_overflow, "overflow drops");
    assert_eq!(c.drops_wire, agg.wire_drops, "wire drops");
    assert_eq!(c.ce_marked, agg.ce_marked, "CE marks");
    assert_eq!(c.pauses, agg.pause_frames, "PFC pause frames");
    assert_eq!(c.timeouts, agg.timeouts, "timeouts");
    assert_eq!(c.fast_retx, agg.fast_retx, "fast retransmissions");
    assert_eq!(c.flows_started, n_flows, "every flow emits flow_start");
    // Every RTO is attributed: one forensic event per timeout, and the
    // traced per-cause tallies equal the engine's aggregate attribution.
    assert_eq!(c.rto_forensics, agg.timeouts, "one forensic per RTO");
    assert_eq!(
        sink.borrow().rto_causes,
        agg.rto_causes,
        "per-cause forensic tallies"
    );
    assert_eq!(agg.rto_causes.total(), agg.timeouts, "every RTO attributed");
}

#[test]
fn trace_counts_match_aggregate_stats_lossy() {
    let cfg = incast_cfg(3);
    assert_counts_match(cfg, incast_burst(80, 8, 32_000, 3));
}

#[test]
fn trace_counts_match_aggregate_stats_pfc() {
    let cfg = pfc_cfg(4);
    assert_counts_match(cfg, incast_burst(80, 8, 32_000, 4));
}

#[test]
fn trace_counts_match_aggregate_stats_wire_loss() {
    let mut cfg = incast_cfg(5);
    cfg.wire_loss_rate = 0.002;
    assert_counts_match(cfg, incast_burst(40, 8, 32_000, 5));
}

#[test]
fn inspector_confirms_bracketed_run() {
    let cfg = incast_cfg(11);
    let flows = incast_burst(60, 8, 32_000, 11);
    let (tracer, sink) = Tracer::new(BufferSink::new());
    tracer.emit(SimTime::ZERO, || TraceEvent::RunStart {
        label: "itest/incast".to_string(),
        seed: 11,
    });
    let mut eng = Engine::new(cfg, flows);
    eng.set_tracer(tracer.clone());
    let agg = eng.run().agg;
    tracer.emit(agg.duration, || TraceEvent::RunEnd {
        drops_color: agg.drops_color,
        drops_dt: agg.drops_dt,
        drops_overflow: agg.drops_overflow,
        wire_drops: agg.wire_drops,
        down_drops: agg.down_drops,
        pause_frames: agg.pause_frames,
        timeouts: agg.timeouts,
        rto_causes: agg.rto_causes,
    });
    let text = String::from_utf8(sink.borrow_mut().take_bytes()).expect("trace is utf-8");

    let report = inspect_str(&text);
    assert!(
        report.is_clean(),
        "inspector found inconsistencies:\n{}",
        report.render()
    );
    assert_eq!(report.runs.len(), 1);
    let run = &report.runs[0];
    assert_eq!(run.label, "itest/incast");
    assert_eq!(run.seed, 11);
    assert_eq!(run.totals.drops_color, agg.drops_color);
    assert_eq!(run.totals.timeouts, agg.timeouts);
    // The per-switch drop table must account for every switch drop.
    let table_drops: u64 = run.per_node.values().map(|n| n.switch_drops()).sum();
    assert_eq!(
        table_drops,
        agg.drops_color + agg.drops_dt + agg.drops_overflow
    );

    // Tampering with a declared total must be caught.
    let tampered = text.replace(
        "\"ev\":\"run_end\",\"drops_color\":",
        "\"ev\":\"run_end\",\"drops_color\":9",
    );
    assert!(
        !inspect_str(&tampered).is_clean(),
        "inspector must flag a run whose declared totals disagree with its events"
    );
}

#[test]
fn port_samples_cover_every_switch_port_at_the_configured_period() {
    let mut cfg = pfc_cfg(6);
    cfg.trace_sample_every = Some(SimTime::from_us(100));
    let (tracer, events) = Tracer::new(Vec::new());
    let mut eng = Engine::new(cfg, incast_burst(60, 8, 32_000, 6));
    eng.set_tracer(tracer);
    let agg = eng.run().agg;
    // Each port's samples, `(t, qlen)` in time order.
    let mut series: BTreeMap<(u32, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for (t, ev) in events.borrow().iter() {
        if let TraceEvent::PortSample {
            node, port, qlen, ..
        } = ev
        {
            series
                .entry((*node, *port))
                .or_default()
                .push((t.as_ns(), *qlen));
        }
    }
    // Single-switch topology with 9 hosts: one switch, ports 0..9.
    assert_eq!(series.len(), 9, "one series per switch port");
    for (key, points) in &series {
        assert!(
            points.len() >= 2,
            "port {key:?} sampled only {} times",
            points.len()
        );
        // Samples are strictly ordered at the configured cadence.
        for w in points.windows(2) {
            assert_eq!(
                w[1].0 - w[0].0,
                100_000,
                "sampling period drifted on {key:?}"
            );
        }
        // No sampled queue exceeds the engine's observed maximum.
        assert!(points.iter().all(|&(_, qlen)| qlen <= agg.max_queue_bytes));
    }
}

#[test]
fn disabled_tracer_changes_nothing() {
    let base = Engine::new(incast_cfg(9), incast_burst(60, 8, 32_000, 9))
        .run()
        .agg;
    let mut eng = Engine::new(incast_cfg(9), incast_burst(60, 8, 32_000, 9));
    eng.set_tracer(Tracer::off());
    let traced = eng.run().agg;
    assert_eq!(base.timeouts, traced.timeouts);
    assert_eq!(base.drops_color, traced.drops_color);
    assert_eq!(base.drops_dt, traced.drops_dt);
    assert_eq!(base.ce_marked, traced.ce_marked);
    assert_eq!(base.duration, traced.duration);
}

/// What `CountingSink` must equal: a recount of an event list with one
/// ordered-map entry per node and per `(node, reason)`, written for
/// obviousness rather than speed.
#[derive(Default, PartialEq, Debug)]
struct Recount {
    totals: TraceCounts,
    per_node: BTreeMap<u32, TraceCounts>,
    drop_matrix: BTreeMap<(u32, DropWhy), u64>,
    rto_causes: RtoCauseCounts,
    events: u64,
}

fn recount<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> Recount {
    let mut r = Recount::default();
    for ev in events {
        r.events += 1;
        let bump = |c: &mut TraceCounts| match ev {
            TraceEvent::Enqueue { .. } => c.enqueues += 1,
            TraceEvent::Dequeue { .. } => c.dequeues += 1,
            TraceEvent::Drop { why, green, .. } => {
                match why {
                    DropWhy::Color => c.drops_color += 1,
                    DropWhy::Dynamic => c.drops_dt += 1,
                    DropWhy::Overflow => c.drops_overflow += 1,
                    DropWhy::Wire => c.drops_wire += 1,
                    DropWhy::LinkDown => c.drops_down += 1,
                }
                if *green {
                    c.drops_green += 1;
                }
            }
            TraceEvent::CeMark { .. } => c.ce_marked += 1,
            TraceEvent::PfcXoff { .. } => c.pauses += 1,
            TraceEvent::PfcXon { .. } => c.resumes += 1,
            TraceEvent::Timeout { .. } => c.timeouts += 1,
            TraceEvent::FastRetx { .. } => c.fast_retx += 1,
            TraceEvent::FlowStart { .. } => c.flows_started += 1,
            TraceEvent::FlowEnd { .. } => c.flows_finished += 1,
            TraceEvent::Fault { .. } => c.faults += 1,
            TraceEvent::Reroute { .. } => c.reroutes += 1,
            TraceEvent::RtoForensic { .. } => c.rto_forensics += 1,
            _ => {}
        };
        bump(&mut r.totals);
        // Events that happen at a switch (or to a fault's target node) are
        // also counted under that node; an RTO attribution carries the node
        // of its root cause but is a per-flow event.
        if let TraceEvent::Enqueue { node, .. }
        | TraceEvent::Dequeue { node, .. }
        | TraceEvent::Drop { node, .. }
        | TraceEvent::CeMark { node, .. }
        | TraceEvent::PfcXoff { node, .. }
        | TraceEvent::PfcXon { node, .. }
        | TraceEvent::Fault { node, .. } = ev
        {
            bump(r.per_node.entry(*node).or_default());
        }
        match ev {
            TraceEvent::Drop { node, why, .. } => {
                *r.drop_matrix.entry((*node, *why)).or_default() += 1;
            }
            TraceEvent::RtoForensic { cause, .. } => r.rto_causes.bump(*cause),
            _ => {}
        }
    }
    r
}

/// Runs the cell into an event list, then checks that a `CountingSink` fed
/// those events agrees with [`recount`] on every view it offers.
fn assert_counting_sink_equals_recount(cfg: SimConfig, flows: Vec<dcsim::FlowSpec>) -> Recount {
    let (tracer, events) = Tracer::new(Vec::new());
    let mut eng = Engine::new(cfg, flows);
    eng.set_tracer(tracer);
    eng.run();
    let events: &Vec<(SimTime, TraceEvent)> = &events.borrow();
    let mut counting = CountingSink::default();
    for (t, ev) in events {
        counting.record(*t, ev);
    }
    let want = recount(events.iter().map(|(_, ev)| ev));
    let got = Recount {
        totals: counting.totals,
        per_node: counting.per_node(),
        drop_matrix: counting.drop_matrix(),
        rto_causes: counting.rto_causes,
        events: counting.events,
    };
    assert_eq!(got, want);
    want
}

#[test]
fn counting_sink_equals_a_recount_of_the_ring_lossy_with_faults() {
    let mut cfg = incast_cfg(3);
    cfg.switch.buffer_bytes = 600_000;
    cfg.wire_loss_rate = 0.002;
    cfg.faults = dcsim::FaultSchedule::new()
        .link_flap(SimTime::from_us(200), 3, 0, SimTime::from_us(150))
        .pause_storm(SimTime::from_us(100), 0, 1, SimTime::from_us(300));
    let r = assert_counting_sink_equals_recount(cfg, incast_burst(80, 8, 32_000, 3));
    // The cell exercises what the views distinguish.
    let t = &r.totals;
    assert!(
        t.switch_drops() > 0 && t.drops_wire > 0 && t.drops_down > 0 && t.faults > 0,
        "{t:?}"
    );
    assert!(t.timeouts > 0 && t.ce_marked > 0 && t.pauses > 0, "{t:?}");
    assert!(r.per_node.len() > 1, "host-side wire/down drops name hosts");
}

/// The `pfc_is_lossless_under_heavy_incast` burst: every sender is paused
/// and resumed.
#[test]
fn counting_sink_equals_a_recount_of_the_ring_pfc() {
    let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
        .with_topology(small_single_switch(33))
        .with_pfc();
    cfg.switch.buffer_bytes = 700_000;
    let flows = (1..33)
        .flat_map(|s| [dcsim::FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true); 2])
        .collect();
    let r = assert_counting_sink_equals_recount(cfg, flows);
    assert!(
        r.totals.pauses > 0 && r.totals.resumes > 0,
        "{:?}",
        r.totals
    );
}
