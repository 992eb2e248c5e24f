//! The traced run: per-layer metrics of one workload.
//!
//! Spans (*S*) come from the benchmark's own recorder around each call into
//! a layer, exact counts (*C*) from `SimResult.agg` and the `profile`-feature
//! registry, kernels (*K*) from `kernels.rs`; the derived metrics (*D*) join
//! them. Inside `Engine::run` the split is counts × kernel floors; timing
//! scopes inside the engine are a later change.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::run::{total_counts, RepFacts, Span};

/// Spans that enclose other spans; every other span is a call into a layer.
const ENCLOSING: [&str; 2] = ["rep", "cell"];

/// Σ seconds by span name over one rep.
fn span_totals(spans: &[Span], rep: usize) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.rep == rep) {
        *out.entry(s.name).or_insert(0.0) += s.secs();
    }
    out
}

const SETUP_SPANS: [&str; 3] = ["workload.gen", "serve.generate", "dcsim.engine_new"];
const WALL_SPANS: [&str; 4] = [
    "dcsim.run",
    "netstats.summarize",
    "serve.account",
    "telemetry.fold",
];

/// Span closure: `setup_s` and `wall_s` of every traced rep are the sum of
/// their spans to within 1 % (or 20 µs, for smoke-sized reps).
pub fn check_closure(reps: &[RepFacts], spans: &[Span]) -> Vec<String> {
    let mut bad = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        let t = span_totals(spans, i + 1);
        let sum = |names: &[&str]| -> f64 { names.iter().filter_map(|n| t.get(n)).sum() };
        for (what, whole, parts) in [
            ("setup_s", rep.setup_s, sum(&SETUP_SPANS)),
            ("wall_s", rep.wall_s, sum(&WALL_SPANS)),
        ] {
            let gap = (whole - parts).abs();
            if gap > (0.01 * whole).max(20e-6) {
                bad.push(format!(
                    "rep {}: {what} {whole:.6} s but its spans sum to {parts:.6} s",
                    i + 1
                ));
            }
        }
    }
    bad
}

/// The traced rep least disturbed by the rest of the box: the fastest.
fn fastest(reps: &[RepFacts]) -> usize {
    (0..reps.len())
        .min_by(|&a, &b| reps[a].wall_s.total_cmp(&reps[b].wall_s))
        .expect("at least one rep")
}

/// Σ `dcsim.run` seconds of the fastest rep.
pub fn run_s_fastest(reps: &[RepFacts], spans: &[Span]) -> f64 {
    span_totals(spans, fastest(reps) + 1)
        .get("dcsim.run")
        .copied()
        .unwrap_or(0.0)
}

/// What the traced run knows from outside itself.
pub struct Outside<'a> {
    /// Kernel results, `(metric, ns per operation)`.
    pub kernels: &'a [(&'static str, f64)],
    /// Untraced `wall_s` of the same workload and seed.
    pub untraced_wall_s: Option<f64>,
    /// Untraced `wall_s` IQR / median, in percent.
    pub untraced_spread_pct: Option<f64>,
    /// `dcsim.run_s` of the observed cells run without observers.
    pub unobserved_run_s: Option<f64>,
}

/// Every per-layer metric of the catalogue, by name.
pub fn layer_metrics(
    reps: &[RepFacts],
    spans: &[Span],
    outside: &Outside,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // S: all from the fastest traced rep, so the spans reported belong to
    // one rep and sum to its setup_s and wall_s.
    let best = fastest(reps);
    let rep = &reps[best];
    let t = span_totals(spans, best + 1);
    let secs = |name: &str| t.get(name).copied().unwrap_or(0.0);
    for (metric, span) in [
        ("workload.gen_s", "workload.gen"),
        ("serve.generate_s", "serve.generate"),
        ("dcsim.engine_new_s", "dcsim.engine_new"),
        ("dcsim.run_s", "dcsim.run"),
        ("netstats.summarize_s", "netstats.summarize"),
        ("serve.account_s", "serve.account"),
        ("telemetry.fold_s", "telemetry.fold"),
        ("netsim.topology.build_s", "netsim.topology.build"),
    ] {
        m.insert(metric, secs(span));
    }
    let in_spans: f64 = t
        .iter()
        .filter(|(n, _)| !ENCLOSING.contains(n))
        .map(|(_, s)| s)
        .sum();
    m.insert("harness.self_s", (rep.elapsed_s - in_spans).max(0.0));

    // C: identical on every rep (checked by the digest); take the first.
    let c = total_counts(&reps[0]);
    let count = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    for (&k, &v) in &c {
        m.insert(k, v as f64);
    }
    m.insert("dcsim.sim_digest48", reps[0].digest as f64);
    let (mut requests, mut violations) = (0u64, 0u64);
    let mut latency = telemetry::Hist::default();
    for s in reps[0].cells.iter().filter_map(|c| c.serve.as_ref()) {
        requests += s.requests;
        violations += s.viol_timeout + s.viol_other;
        latency.merge(&s.latency);
    }
    m.insert("serve.requests", requests as f64);
    m.insert("serve.slo_violations", violations as f64);
    m.insert(
        "serve.sim_req_p99_us",
        latency.quantile_permille(990) as f64 / 1e3,
    );

    // K.
    let mut k_ns = BTreeMap::new();
    for &(name, ns) in outside.kernels {
        m.insert(name, ns);
        k_ns.insert(name, ns);
    }
    let k = |name: &str| k_ns.get(name).copied().unwrap_or(0.0);

    // D.
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let run_s = secs("dcsim.run");
    let pkts = count("transport.data_pkts");
    let executed = count("dcsim.events_executed");
    let retx: u64 = reps[0].cells.iter().map(|c| c.retx).sum();
    m.insert(
        "eventsim.stale_share",
        ratio(count("eventsim.stale_pops"), count("eventsim.queue_pops")),
    );
    m.insert("transport.retx_share", ratio(retx as f64, pkts));
    m.insert("dcsim.events_per_s", ratio(executed, run_s));
    m.insert("dcsim.ns_per_event", ratio(run_s * 1e9, executed));
    m.insert("dcsim.events_per_pkt", ratio(executed, pkts));

    // Floors: what the counted operations would cost at kernel speed.
    let drops = count("netsim.switch.drops");
    let admitted = (count("netsim.link.deliver_transit") - drops).max(0.0);
    let transport_ns: f64 = reps[0]
        .cells
        .iter()
        .map(|c| {
            c.count("transport.data_pkts") as f64
                * k(if c.roce {
                    "transport.roce.loopback_ns"
                } else {
                    "transport.tcp.loopback_ns"
                })
        })
        .sum();
    let floors = [
        (
            "eventsim.floor_share",
            count("eventsim.queue_pushes") * k("eventsim.queue.hold_4k_ns"),
        ),
        (
            "netsim.switch.floor_share",
            admitted * k("netsim.switch.enq_deq_ns") + drops * k("netsim.switch.reject_ns"),
        ),
        ("transport.floor_share", transport_ns),
    ];
    let mut attributed = 0.0;
    for (name, ns) in floors {
        let share = ratio(ns / 1e9, run_s);
        attributed += share;
        m.insert(name, share);
    }
    m.insert("dcsim.unattributed_share", 1.0 - attributed);

    m.insert(
        "telemetry.overhead_ratio",
        outside
            .unobserved_run_s
            .map_or(0.0, |plain| ratio(run_s, plain)),
    );
    m.insert(
        "harness.trace_overhead_pct",
        outside
            .untraced_wall_s
            .map_or(0.0, |u| ratio(rep.wall_s - u, u) * 100.0),
    );
    m.insert(
        "harness.rep_spread_pct",
        outside.untraced_spread_pct.unwrap_or(0.0),
    );
    m
}

/// Chrome trace-event JSON (loadable in Perfetto or `chrome://tracing`):
/// one complete event per span, nested by time on one track.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let _ = writeln!(
        s,
        "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
         \"args\": {{\"name\": \"tlt-benchmark {workload}\"}}}},"
    );
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
             \"rep\": {}, \"cell\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}}}",
            sp.name,
            sp.name.split('.').next().unwrap_or(sp.name),
            sp.start_ns as f64 / 1e3,
            (sp.end_ns - sp.start_ns) as f64 / 1e3,
            sp.rep,
            sp.cell,
            sp.start_ns,
            sp.end_ns,
        );
        s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::run::{timed_reps, Budget, Recorder};
    use crate::workloads::{build, Scale};

    /// Every per-layer metric of the catalogue gets a finite value, whatever
    /// the workload; the exact event counters need the `profile` build.
    #[test]
    fn every_catalogue_metric_is_produced() {
        let kernels: Vec<(&'static str, f64)> = PER_LAYER
            .iter()
            .filter(|m| m.source == crate::metrics::Source::Kernel)
            .map(|m| (m.name, 10.0))
            .collect();
        for name in ["serve_k8", "mix_tcp_observed"] {
            let w = build(name, Scale::Smoke, 3).unwrap();
            let mut rec = Recorder::new(true);
            let reps = timed_reps(&w, Budget::Reps(3), &mut rec).reps;
            let m = layer_metrics(
                &reps,
                &rec.spans,
                &Outside {
                    kernels: &kernels,
                    untraced_wall_s: Some(reps[0].wall_s),
                    untraced_spread_pct: Some(4.0),
                    unobserved_run_s: Some(run_s_fastest(&reps, &rec.spans)),
                },
            );
            for def in PER_LAYER {
                match m.get(def.name) {
                    Some(v) => assert!(v.is_finite(), "{name}: {}", def.name),
                    // Only the engine's event counters may be missing, and
                    // only without the feature that compiles them in.
                    None => assert!(
                        !cfg!(feature = "profile") && def.source == crate::metrics::Source::Count,
                        "{name}: {} missing",
                        def.name
                    ),
                }
            }
            assert!(m["dcsim.run_s"] > 0.0 && m["harness.self_s"] >= 0.0);
            assert_eq!(m["harness.rep_spread_pct"], 4.0);
            assert_eq!(m["telemetry.overhead_ratio"], 1.0);
            assert_eq!(m["serve.requests"] > 0.0, name == "serve_k8");
            assert_eq!(m["telemetry.sink_events"] > 0.0, name == "mix_tcp_observed");
        }
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let w = build("incast_burst", Scale::Smoke, 3).unwrap();
        let mut rec = Recorder::new(true);
        timed_reps(&w, Budget::Reps(1), &mut rec);
        let doc = crate::json::parse(&chrome_trace("incast_burst", &rec.spans)).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), rec.spans.len() + 1);
        // rep > cell > layer call: every span but the rep names its parent.
        let orphans = rec.spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(orphans, 1);
        for s in &rec.spans {
            if let Some(p) = s.parent {
                let p = &rec.spans[p];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{}",
                    s.name
                );
            }
        }
    }
}
