//! The export invariants of `tlt-metrics/v1`, checked on the artifact.
//!
//! [`Artifact::validate`] refuses any key the schema does not declare, then
//! applies the rules of each schema section the artifact's keys put it in,
//! by the key test [`Artifact::render`] uses;
//! [`Artifact::check_bytes`] adds canonical bytes for a document read from
//! a file. `trace_inspect --metrics` runs both on every file it renders. A
//! violation reads `<section> [<scheme>]: <rule>: <lhs> != <rhs>`: the keys
//! of a per-scheme rule carry that scheme, `#h` is histogram `h`'s count,
//! `Σh` its sum, and a trailing `*` sums every key under the prefix.

use std::fmt::Display;

use crate::artifact::Artifact;
use crate::schema::Schema;
use crate::serve::REQ_LATENCY_PREFIX;
use crate::spans::SPAN_FCT_PREFIX;

/// `Err` naming `rule` and both values unless `lhs == rhs`.
fn eq<T: PartialEq + Display>(rule: &str, lhs: T, rhs: T) -> Result<(), String> {
    (lhs == rhs)
        .then_some(())
        .ok_or_else(|| format!("{rule}: {lhs} != {rhs}"))
}

impl Artifact {
    /// Holds the artifact to every invariant of the sections it belongs to:
    /// every counter, gauge, histogram and series name declared in the
    /// schema, each section's `required_meta` (with `jobs == "any"` wherever
    /// it is required), the registry, serve, profile and spans sums below,
    /// and every reservoir flow's phases closing over its extent.
    ///
    /// # Errors
    ///
    /// The first violated invariant, with the values on both sides, or the
    /// first undeclared key.
    pub fn validate(&self, schema: &Schema) -> Result<(), String> {
        if let Some(key) = self.keys().find(|k| !schema.allows_exact(k)) {
            return Err(format!(
                "schema: {key:?} is not declared in ci/metrics_schema.json"
            ));
        }
        let has_hist = |prefix: &str| self.reg.hists().any(|(k, _)| k.starts_with(prefix));
        let serve = has_hist(REQ_LATENCY_PREFIX);
        let spans = has_hist(SPAN_FCT_PREFIX) || !self.spans.is_empty();
        let profile = !self.series.is_empty();
        for d in &schema.meta {
            let applies = match d.section {
                "serve" => serve,
                "spans" => spans,
                "profile" => profile,
                _ => !(serve || spans || profile),
            };
            match self.reg.meta_get(&d.key) {
                _ if !applies => {}
                None => return Err(format!("meta: {:?} export lacks {:?}", d.section, d.key)),
                Some(v) if d.key == "jobs" && v != "any" => {
                    return Err(format!("meta: jobs must be \"any\", found {v:?}"))
                }
                Some(_) => {}
            }
        }
        let c = |key: &str| u128::from(self.reg.counter(key));
        let under = |prefix: &str| -> u128 {
            let keys = self.reg.counters().filter(|(k, _)| k.starts_with(prefix));
            keys.map(|(_, v)| u128::from(v)).sum()
        };
        let count = |key: &str| self.reg.hist(key).map_or(0, |h| u128::from(h.count));

        // Every RTO has a known forensic cause.
        let r = "registry: rto_cause_* == timeouts";
        eq(r, under("rto_cause_"), c("timeouts"))?;
        let r = "registry: rto_cause_unknown == 0";
        eq(r, c("rto_cause_unknown"), 0)?;

        // Every request lands in one bucket; timeout violations are joined
        // to causes and bounded by the recorded RTOs.
        for s in self.serve_schemes() {
            let cs = |key: &str| c(&format!("{key}/{s}"));
            let rule = |r: &str| format!("serve {s}: {r}");
            let done = count(&format!("{REQ_LATENCY_PREFIX}{s}"));
            let r = rule("#serve_req_latency_ns + serve_incomplete == serve_requests");
            eq(&r, done + cs("serve_incomplete"), cs("serve_requests"))?;
            let (viol, rtos) = (cs("serve_slo_viol_timeout"), cs("serve_rtos"));
            let r = rule("serve_viol_cause/* == serve_slo_viol_timeout");
            eq(&r, under(&format!("serve_viol_cause/{s}/")), viol)?;
            if viol > rtos {
                let r = rule("serve_slo_viol_timeout <= serve_rtos");
                return Err(format!("{r}: {viol} > {rtos}"));
            }
        }

        // Every scheduled event is executed or cancelled, never lost.
        if profile {
            let (sched, exec) = (under("event_sched/"), under("event_exec/"));
            let cancelled = c("events_cancelled_total");
            let r = "profile: event_sched/* == events_scheduled_total";
            eq(r, sched, c("events_scheduled_total"))?;
            let r = "profile: event_exec/* == events_executed_total";
            eq(r, exec, c("events_executed_total"))?;
            let dropped = under("event_stale/") + under("event_unpopped/");
            let r = "profile: event_stale/* + event_unpopped/* == events_cancelled_total";
            eq(r, dropped, cancelled)?;
            let r = "profile: event_exec/* + events_cancelled_total == event_sched/*";
            eq(r, exec + cancelled, sched)?;
            let r = "profile: component_exec/* == queue_pops";
            eq(r, under("component_exec/"), c("queue_pops"))?;
        }

        // The latency ledger's phases close exactly against the FCTs.
        for s in self.span_schemes() {
            let rule = |r: &str| format!("spans {s}: {r}");
            let unattributed = c(&format!("span_unattributed_ns/{s}"));
            eq(&rule("span_unattributed_ns == 0"), unattributed, 0)?;
            let r = rule("Σspan_phase_ns/* - Σspan_fct_ns == 0");
            eq(&r, self.conservation_residue(&s), 0)?;
            let flows = c(&format!("span_flows/{s}"));
            let fcts = count(&format!("{SPAN_FCT_PREFIX}{s}"));
            eq(&rule("span_flows == #span_fct_ns"), flows, fcts)?;
        }

        for span in &self.spans {
            for f in &span.flows {
                let phases: u128 = f.phases.iter().map(|(_, ns)| u128::from(ns)).sum();
                if u128::from(f.start_ns) + phases != u128::from(f.end_ns) {
                    return Err(format!(
                        "spans: reservoir {}/s{}/r{} flow {}: start + phases == end: {} + {phases} != {}",
                        span.scheme, span.seed, span.req, f.id, f.start_ns, f.end_ns
                    ));
                }
            }
        }
        Ok(())
    }

    /// The canonical-bytes invariant: `text`, the document this artifact
    /// was parsed from, is byte for byte what [`Artifact::to_json`] writes.
    ///
    /// # Errors
    ///
    /// Names the first line where `text` departs from the canonical form.
    pub fn check_bytes(&self, text: &str) -> Result<(), String> {
        let canonical = self.to_json();
        let mut ours = canonical.lines();
        match text.lines().position(|l| ours.next() != Some(l)) {
            _ if canonical == text => Ok(()),
            line => Err(format!(
                "canonical bytes: line {} differs from the tlt-metrics/v1 encoding",
                line.unwrap_or(text.lines().count()) + 1
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Phase, PhaseTimes};
    use crate::spans::{FlowSpan, RequestSpan};
    use eventsim::SimTime;

    fn schema() -> Schema {
        Schema::builtin()
    }

    /// Stamps every provenance key any section requires, except `skip`.
    fn stamp(a: &mut Artifact, skip: &str) {
        for (k, v) in [
            ("build_profile", "release"),
            ("cores", "2"),
            ("jobs", "any"),
            ("scale", "quick"),
            ("seeds", "1"),
            ("slo_ns", "2000000"),
            ("workload", "cache_follower"),
        ] {
            if k != skip {
                a.reg.set_meta(k, v);
            }
        }
    }

    /// A `--metrics` export: three RTOs, each with a known cause.
    fn registry() -> Artifact {
        let mut a = Artifact::new();
        stamp(&mut a, "");
        a.reg.inc("timeouts", 3);
        a.reg.inc("rto_cause_color", 2);
        a.reg.inc("rto_cause_wire", 1);
        a.reg.inc("rto_cause_unknown", 0);
        a.reg.observe("port_queue_bytes/n0/p1", 9000);
        a
    }

    /// A serve export: two schemes of four requests, one incomplete each;
    /// two timeout violations joined to causes and backed by three RTOs.
    fn serve(skip: &str) -> Artifact {
        let mut a = Artifact::new();
        stamp(&mut a, skip);
        for s in ["dctcp", "dctcp+tlt"] {
            a.reg.inc(&format!("serve_requests/{s}"), 4);
            a.reg.inc(&format!("serve_incomplete/{s}"), 1);
            a.reg.inc(&format!("serve_rtos/{s}"), 0);
            for lat in [1_000, 2_000, 3_000_000] {
                a.reg.observe(&format!("{REQ_LATENCY_PREFIX}{s}"), lat);
            }
        }
        a.reg.inc("serve_slo_viol_timeout/dctcp", 2);
        a.reg.inc("serve_viol_cause/dctcp/color", 1);
        a.reg.inc("serve_viol_cause/dctcp/wire", 1);
        a.reg.inc("serve_rtos/dctcp", 3);
        a
    }

    /// A profile export: five events scheduled, one cancelled stale.
    fn profile() -> Artifact {
        let mut a = Artifact::new();
        stamp(&mut a, "");
        for (k, v) in [
            ("event_sched/deliver", 3),
            ("event_sched/timer", 2),
            ("event_exec/deliver", 3),
            ("event_exec/timer", 1),
            ("event_stale/timer", 1),
            ("event_unpopped/timer", 0),
            ("events_scheduled_total", 5),
            ("events_executed_total", 4),
            ("events_cancelled_total", 1),
            ("component_exec/link", 3),
            ("component_exec/timer", 1),
            ("queue_pops", 4),
        ] {
            a.reg.inc(k, v);
        }
        a.series_mut("events").record(SimTime::from_ns(100), 5);
        a
    }

    /// A spans export: one closed 70 ns flow, in the reservoir too.
    fn spans() -> Artifact {
        let mut a = Artifact::new();
        for (k, v) in [("scale", "k8"), ("slo_ns", "2000000"), ("workload", "x")] {
            a.reg.set_meta(k, v);
        }
        let mut phases = PhaseTimes::default();
        phases.add(Phase::Serialization, 30);
        phases.add(Phase::RtoStall, 40);
        a.record_flow("dctcp", &phases, 70, 0);
        a.push_request(RequestSpan {
            scheme: "dctcp".to_string(),
            seed: 1,
            req: 0,
            start_ns: 10,
            latency_ns: 70,
            dominant: Phase::RtoStall,
            flows: vec![FlowSpan {
                id: 0,
                role: "query".to_string(),
                start_ns: 10,
                end_ns: 80,
                phases,
                stalls: Vec::new(),
            }],
        });
        a
    }

    /// `a` with `counts` added, and the invariant it now breaks.
    fn broken(mut a: Artifact, counts: &[(&str, u64)]) -> String {
        for &(k, v) in counts {
            a.reg.inc(k, v);
        }
        a.validate(&schema())
            .expect_err("a broken invariant is caught")
    }

    #[test]
    fn real_shaped_exports_hold() {
        for a in [registry(), serve(""), profile(), spans()] {
            assert_eq!(a.validate(&schema()), Ok(()), "{}", a.to_json());
            assert_eq!(a.check_bytes(&a.to_json()), Ok(()));
        }
    }

    /// An emitted key the schema does not declare: renaming one emission
    /// site is caught at the first export that carries it.
    #[test]
    fn an_undeclared_key_is_named() {
        assert_eq!(
            broken(registry(), &[("timeoutz", 0)]),
            "schema: \"timeoutz\" is not declared in ci/metrics_schema.json"
        );
        let mut a = profile();
        a.series_mut("event").record(SimTime::from_ns(1), 1);
        let err = a.validate(&schema()).expect_err("an undeclared series");
        assert!(err.contains("\"event\""), "{err}");
    }

    #[test]
    fn every_rto_needs_a_known_cause() {
        assert_eq!(
            broken(registry(), &[("timeouts", 1)]),
            "registry: rto_cause_* == timeouts: 3 != 4"
        );
        assert_eq!(
            broken(registry(), &[("timeouts", 1), ("rto_cause_unknown", 1)]),
            "registry: rto_cause_unknown == 0: 1 != 0"
        );
    }

    #[test]
    fn required_meta_is_per_section() {
        let mut bare = Artifact::new();
        bare.reg.inc("timeouts", 0);
        assert_eq!(
            bare.validate(&schema()),
            Err("meta: \"\" export lacks \"cores\"".to_string())
        );
        assert_eq!(
            serve("slo_ns").validate(&schema()),
            Err("meta: \"serve\" export lacks \"slo_ns\"".to_string())
        );
        let mut a = registry();
        a.reg.set_meta("jobs", "2");
        assert_eq!(
            a.validate(&schema()),
            Err("meta: jobs must be \"any\", found \"2\"".to_string())
        );
        // The spans section requires no `jobs`, so any value passes there.
        let mut a = spans();
        a.reg.set_meta("jobs", "2");
        assert_eq!(a.validate(&schema()), Ok(()));
    }

    #[test]
    fn serve_sums_are_checked_per_scheme() {
        assert_eq!(
            broken(serve(""), &[("serve_requests/dctcp+tlt", 1)]),
            "serve dctcp+tlt: #serve_req_latency_ns + serve_incomplete == serve_requests: 4 != 5"
        );
        assert_eq!(
            broken(serve(""), &[("serve_viol_cause/dctcp/wire", 1)]),
            "serve dctcp: serve_viol_cause/* == serve_slo_viol_timeout: 3 != 2"
        );
        assert_eq!(
            broken(
                serve(""),
                &[
                    ("serve_slo_viol_timeout/dctcp", 2),
                    ("serve_viol_cause/dctcp/color", 2)
                ]
            ),
            "serve dctcp: serve_slo_viol_timeout <= serve_rtos: 4 > 3"
        );
    }

    #[test]
    fn profile_accounting_is_checked() {
        for (key, invariant) in [
            (
                "events_scheduled_total",
                "event_sched/* == events_scheduled_total: 5 != 6",
            ),
            (
                "events_executed_total",
                "event_exec/* == events_executed_total: 4 != 5",
            ),
            (
                "event_unpopped/timer",
                "event_stale/* + event_unpopped/* == events_cancelled_total: 2 != 1",
            ),
            ("queue_pops", "component_exec/* == queue_pops: 4 != 5"),
        ] {
            assert_eq!(
                broken(profile(), &[(key, 1)]),
                format!("profile: {invariant}")
            );
        }
        // Cancellations consistent with their parts, not with the totals.
        assert_eq!(
            broken(
                profile(),
                &[("event_stale/timer", 1), ("events_cancelled_total", 1)]
            ),
            "profile: event_exec/* + events_cancelled_total == event_sched/*: 6 != 5"
        );
    }

    #[test]
    fn spans_conservation_is_checked() {
        assert_eq!(
            broken(spans(), &[("span_unattributed_ns/dctcp", 5)]),
            "spans dctcp: span_unattributed_ns == 0: 5 != 0"
        );
        assert_eq!(
            broken(spans(), &[("span_flows/dctcp", 1)]),
            "spans dctcp: span_flows == #span_fct_ns: 2 != 1"
        );
        let mut a = spans();
        a.reg.observe("span_phase_ns/dctcp/propagation", 9);
        assert_eq!(
            a.validate(&schema()),
            Err("spans dctcp: Σspan_phase_ns/* - Σspan_fct_ns == 0: 9 != 0".to_string())
        );
        let mut a = spans();
        a.spans[0].flows[0].end_ns = 81;
        assert_eq!(
            a.validate(&schema()),
            Err(
                "spans: reservoir dctcp/s1/r0 flow 0: start + phases == end: 10 + 70 != 81"
                    .to_string()
            )
        );
    }

    /// Moving `meta` after `counters` keeps valid JSON that parses to the
    /// same artifact, but not the bytes the encoder writes.
    #[test]
    fn reordered_keys_are_not_canonical() {
        let text = registry().to_json();
        let (head, rest) = text.split_once("  \"meta\"").unwrap();
        let (meta, rest) = rest.split_once("  \"counters\"").unwrap();
        let (counters, tail) = rest.split_once("  \"gauges\"").unwrap();
        let moved = format!("{head}  \"counters\"{counters}  \"meta\"{meta}  \"gauges\"{tail}");
        let back = Artifact::parse(&moved).expect("reordered keys still parse");
        assert_eq!(back, registry());
        assert_eq!(
            back.check_bytes(&moved),
            Err("canonical bytes: line 3 differs from the tlt-metrics/v1 encoding".to_string())
        );
    }
}
