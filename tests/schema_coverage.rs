//! Every key `ci/metrics_schema.json` declares is emitted by some export,
//! and every export holds every invariant of `Artifact::validate`, which
//! also refuses a key the schema does not declare. One small cell per
//! export path, built through the libraries as the harness builds it: the
//! metrics registry of a lossy serve cell and of a PFC incast, and that
//! serve cell's SLO report (with a timeout-rooted SLO violation), latency
//! spans and engine profile. A declared key that nothing emits fails here:
//! mend the schema or the emitter.

use dcsim::{small_single_switch, Engine, FlowSpec, SimConfig};
use eventsim::SimTime;
use serve::ServeParams;
use telemetry::schema::Schema;
use telemetry::Artifact;
use transport::TransportKind;
use workload::FlowSizeCdf;

/// The four exports, each stamped with the provenance the harness writes.
fn exports() -> [(&'static str, Artifact); 4] {
    // A lossy serve cell: a shallow buffer under fanned-out requests, so
    // RTOs overrun the SLO.
    let mut params = ServeParams::small(9);
    params.requests = 32;
    params.fanout_fraction = 1.0;
    params.fanout = 6;
    params.mean_gap = SimTime::from_us(2);
    params.response_cdf = FlowSizeCdf::fixed(60_000);
    params.slo = SimTime::from_us(500);
    let wl = serve::generate(&params, 11);
    let mut cfg = SimConfig::tcp_family(TransportKind::Tcp)
        .with_topology(small_single_switch(9))
        .with_seed(11);
    cfg.switch.buffer_bytes = 60_000;
    let mut eng = Engine::new(cfg, wl.flows.clone());
    eng.set_metrics();
    eng.set_profile();
    eng.set_ledger();
    let res = eng.run();

    // A PFC incast, so pauses are recorded.
    let flows = (1..9)
        .map(|s| FlowSpec::new(s, 0, 64_000, SimTime::ZERO, true))
        .collect();
    let mut pfc = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(9));
    pfc.switch.buffer_bytes = 100_000;
    let mut pfc = Engine::new(pfc.with_pfc(), flows);
    pfc.set_metrics();
    let pfc = pfc.run();

    let mut metrics = Artifact::new();
    for run in [&res, &pfc] {
        metrics
            .reg
            .merge(run.metrics.as_ref().expect("metrics attached"));
    }
    let mut all = [
        ("metrics", metrics),
        ("profile", res.profile.clone().expect("profiler attached")),
        ("serve", serve::account("tcp", &wl, &res, params.slo)),
        (
            "spans",
            serve::account_spans("tcp", 11, &wl, &res, params.slo),
        ),
    ];
    for (_, a) in &mut all {
        for (k, v) in [
            ("build_profile", "debug"),
            ("cores", "1"),
            ("jobs", "any"),
            ("scale", "quick"),
            ("seeds", "1"),
            ("slo_ns", "500000"),
            ("workload", "fixed"),
        ] {
            a.reg.set_meta(k, v);
        }
    }
    all
}

#[test]
fn every_declared_key_is_emitted_and_every_export_validates() {
    let schema = Schema::builtin();
    let exports = exports();
    let mut emitted: Vec<&str> = Vec::new();
    for (name, a) in &exports {
        assert_eq!(a.validate(&schema), Ok(()), "the {name} export");
        emitted.extend(a.keys());
    }
    let dead_exact = schema.exact.iter().filter(|d| !emitted.contains(&&*d.key));
    let dead_prefix = schema.prefixes.iter();
    let dead_prefix = dead_prefix.filter(|d| !emitted.iter().any(|k| k.starts_with(&d.key)));
    let dead: Vec<&str> = dead_exact.chain(dead_prefix).map(|d| &*d.key).collect();
    assert!(
        dead.is_empty(),
        "declared in ci/metrics_schema.json, emitted by no export: {dead:?}"
    );
}
