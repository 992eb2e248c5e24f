//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction, bound and source. `BENCHMARK.json` must list exactly these
//! (a self-test checks it), `compare` takes its bounds from here.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// Where a number comes from. Host time unless the name starts `sim_` or
/// the source is `Count`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// End-to-end: the default-feature build, no spans.
    EndToEnd,
    /// *C*: an exact count read from the simulator's own results; repeats
    /// bit for bit for a given seed.
    Count,
    /// *S*: host seconds of a benchmark-side span in the traced run.
    Span,
    /// *K*: host ns per operation of an isolated layer kernel.
    Kernel,
    /// *D*: derived from the others.
    Derived,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        source: Source::EndToEnd,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> Metric {
    Metric {
        name,
        unit,
        better,
        source,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Source::{Count, Derived, Kernel, Span};

pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("pkts_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

pub const PER_LAYER: &[Metric] = &[
    layer("eventsim.queue_pushes", "count", Lower, Count),
    layer("eventsim.queue_pops", "count", Lower, Count),
    layer("eventsim.stale_pops", "count", Lower, Count),
    layer("eventsim.queue_peak_depth", "count", Lower, Count),
    layer("eventsim.stale_share", "ratio", Lower, Derived),
    layer("eventsim.floor_share", "ratio", Lower, Derived),
    layer("eventsim.queue.hold_4k_ns", "ns", Lower, Kernel),
    layer("eventsim.queue.hold_128k_ns", "ns", Lower, Kernel),
    layer("netsim.switch.exec", "count", Lower, Count),
    layer("netsim.switch.drops", "count", Lower, Count),
    layer("netsim.switch.ce_marked", "count", Lower, Count),
    layer("netsim.switch.pause_frames", "count", Lower, Count),
    layer("netsim.switch.enq_deq_ns", "ns", Lower, Kernel),
    layer("netsim.switch.reject_ns", "ns", Lower, Kernel),
    layer("netsim.switch.floor_share", "ratio", Lower, Derived),
    layer("netsim.link.exec", "count", Lower, Count),
    layer("netsim.link.deliver_transit", "count", Lower, Count),
    layer("netsim.link.deliver_endpoint", "count", Lower, Count),
    layer("netsim.packet.slab_ns", "ns", Lower, Kernel),
    layer("netsim.topology.build_s", "s", Lower, Span),
    layer("netsim.topology.pin_ns", "ns", Lower, Kernel),
    layer("transport.exec", "count", Lower, Count),
    layer("transport.data_pkts", "count", Lower, Count),
    layer("transport.timeouts", "count", Lower, Count),
    layer("transport.fast_retx", "count", Lower, Count),
    layer("transport.retx_share", "ratio", Lower, Derived),
    layer("transport.floor_share", "ratio", Lower, Derived),
    layer("transport.tcp.loopback_ns", "ns", Lower, Kernel),
    layer("transport.tcp.lossy_ns", "ns", Lower, Kernel),
    layer("transport.roce.loopback_ns", "ns", Lower, Kernel),
    layer("transport.buffer.sack_ns", "ns", Lower, Kernel),
    layer("tlt-core.important_pkts", "count", Lower, Count),
    layer("tlt-core.clocking_pkts", "count", Lower, Count),
    layer("tlt-core.window.mark_ns", "ns", Lower, Kernel),
    layer("dcsim.engine_new_s", "s", Lower, Span),
    layer("dcsim.run_s", "s", Lower, Span),
    layer("dcsim.events_scheduled", "count", Lower, Count),
    layer("dcsim.events_executed", "count", Lower, Count),
    layer("dcsim.events_cancelled", "count", Lower, Count),
    layer("dcsim.timer.exec", "count", Lower, Count),
    layer("dcsim.timer.disarms", "count", Lower, Count),
    layer("dcsim.timers_leaked", "count", Lower, Count),
    layer("dcsim.sim_duration_us", "us", Lower, Count),
    layer("dcsim.sim_digest48", "count", Lower, Count),
    layer("dcsim.events_per_s", "1/s", Higher, Derived),
    layer("dcsim.ns_per_event", "ns", Lower, Derived),
    layer("dcsim.events_per_pkt", "ratio", Lower, Derived),
    layer("dcsim.unattributed_share", "ratio", Lower, Derived),
    layer("faults.exec", "count", Lower, Count),
    layer("faults.injected", "count", Lower, Count),
    layer("faults.down_drops", "count", Lower, Count),
    layer("faults.wire_drops", "count", Lower, Count),
    layer("faults.reroutes", "count", Lower, Count),
    layer("workload.gen_s", "s", Lower, Span),
    layer("workload.flows", "count", Lower, Count),
    layer("workload.cdf.sample_ns", "ns", Lower, Kernel),
    layer("serve.generate_s", "s", Lower, Span),
    layer("serve.account_s", "s", Lower, Span),
    layer("serve.requests", "count", Lower, Count),
    layer("serve.slo_violations", "count", Lower, Count),
    layer("serve.sim_req_p99_us", "us", Lower, Count),
    layer("netstats.summarize_s", "s", Lower, Span),
    layer("netstats.percentile_ns", "ns", Lower, Kernel),
    layer("telemetry.fold_s", "s", Lower, Span),
    layer("telemetry.sink_events", "count", Lower, Count),
    layer("telemetry.sampler.exec", "count", Lower, Count),
    layer("telemetry.registry_keys", "count", Lower, Count),
    layer("telemetry.tracer.emit_ns", "ns", Lower, Kernel),
    layer("telemetry.registry.observe_ns", "ns", Lower, Kernel),
    layer("telemetry.overhead_ratio", "ratio", Lower, Derived),
    layer("harness.self_s", "s", Lower, Span),
    layer("harness.trace_overhead_pct", "%", Lower, Derived),
    layer("harness.rep_spread_pct", "%", Lower, Derived),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `BENCHMARK.json` at the repo root lists exactly this catalogue.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().items();
            assert_eq!(listed.len(), catalogue.len(), "{key}");
            for (entry, def) in listed.iter().zip(catalogue) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(entry.get("better").and_then(Value::as_str), Some(better));
                assert_eq!(
                    entry.get("bound").and_then(Value::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert_eq!(
                m.bound.is_some(),
                m.source == Source::EndToEnd,
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
