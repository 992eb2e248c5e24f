//! Cross-run comparison of two exported artifacts, key by key.
//!
//! `benchcmp` reads two JSON exports of the *same* schema — `tlt-metrics/v1`
//! (`--metrics`), `tlt-profile/v1` (`--profile-out`), `tlt-serve/v1`
//! (`serve_grid --serve-out`) or `tlt-spans/v1` (`serve_grid --spans-out`) —
//! through the telemetry parser that owns the format, flattens each into a
//! key → count map, and reports every key that moved. Every value is an
//! exact count of a deterministic run, so nothing is graded: a moved key is
//! a behaviour change to investigate. Speed is measured elsewhere, by the
//! repo benchmark (`benchmark/run.sh`).
//!
//! Provenance metadata guards against apples-to-oranges comparisons: a
//! `scale`, `build_profile`, or `seeds` value present in *both* files but
//! different is a refusal (exit 2 unless `--force`); a value missing from
//! one side only warns.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use telemetry::json::{self, Value};
use telemetry::{
    Profile, Registry, ServeReport, SpanReport, METRICS_SCHEMA, PROFILE_SCHEMA, SERVE_SCHEMA,
    SPANS_SCHEMA,
};

/// One artifact flattened for comparison.
#[derive(Debug)]
pub struct Doc {
    /// The schema tag (`tlt-metrics/v1`, `tlt-profile/v1`, ...).
    pub schema: &'static str,
    /// Provenance strings (`scale`, `build_profile`, `seeds`, ...).
    pub meta: BTreeMap<String, String>,
    /// Every comparable count, keyed hierarchically
    /// (`counter/event_exec/deliver`, `hist/fct_us/sum`, `series/events/count`).
    pub nums: BTreeMap<String, u64>,
}

impl Doc {
    /// Flattens a registry body: counters, gauges, and each histogram's
    /// count, sum and max (`tlt-spans/v1`'s span trees are not compared).
    fn of(schema: &'static str, reg: &Registry) -> Doc {
        let mut nums = BTreeMap::new();
        for (k, v) in reg.counters() {
            nums.insert(format!("counter/{k}"), v);
        }
        for (k, v) in reg.gauges() {
            nums.insert(format!("gauge/{k}"), v);
        }
        for (k, h) in reg.hists() {
            nums.insert(format!("hist/{k}/count"), h.count);
            nums.insert(format!("hist/{k}/sum"), h.sum);
            nums.insert(format!("hist/{k}/max"), h.max());
        }
        let meta = reg
            .meta()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Doc { schema, meta, nums }
    }

    /// A profile's registry body plus each sim-time series' totals.
    fn of_profile(p: Profile) -> Doc {
        let mut doc = Doc::of(PROFILE_SCHEMA, &p.reg);
        for (k, ts) in &p.series {
            doc.nums.insert(format!("series/{k}/sum"), ts.total_sum());
            doc.nums
                .insert(format!("series/{k}/count"), ts.total_count());
        }
        doc
    }
}

/// Parses and flattens one artifact of any of the four formats: its
/// `"schema"` tag picks the telemetry parser that owns the format.
pub fn load(text: &str) -> Result<Doc, String> {
    match json::parse(text)?.get("schema").and_then(Value::as_str) {
        Some(METRICS_SCHEMA) => Registry::parse(text).map(|r| Doc::of(METRICS_SCHEMA, &r)),
        Some(PROFILE_SCHEMA) => Profile::parse(text).map(Doc::of_profile),
        Some(SERVE_SCHEMA) => ServeReport::parse(text).map(|r| Doc::of(SERVE_SCHEMA, &r.reg)),
        Some(SPANS_SCHEMA) => SpanReport::parse(text).map(|r| Doc::of(SPANS_SCHEMA, &r.reg)),
        Some(other) => Err(format!("unsupported schema {other:?}")),
        None => Err("missing \"schema\" key".to_string()),
    }
}

/// One key's before/after pair.
#[derive(Debug)]
pub struct Delta {
    /// Flattened key.
    pub key: String,
    /// Value in the old artifact.
    pub old: u64,
    /// Value in the new artifact.
    pub new: u64,
}

impl Delta {
    /// Percent change relative to `old` (`None` when `old == 0`).
    pub fn pct(&self) -> Option<f64> {
        (self.old != 0).then(|| (self.new as f64 - self.old as f64) / self.old as f64 * 100.0)
    }
}

/// The full comparison of two artifacts.
#[derive(Debug)]
pub struct Comparison {
    /// Per-key pairs for keys present in both files, in key order.
    pub deltas: Vec<Delta>,
    /// Keys only the old file has (removed measurements).
    pub only_old: Vec<String>,
    /// Keys only the new file has (added measurements).
    pub only_new: Vec<String>,
    /// Non-fatal provenance notes.
    pub warnings: Vec<String>,
    /// A fatal provenance mismatch; comparing anyway needs `--force`.
    pub refusal: Option<String>,
}

impl Comparison {
    /// Keys whose value moved.
    pub fn changed(&self) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(|d| d.old != d.new)
    }

    /// Renders the human-readable table: one row per moved key.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for w in &self.warnings {
            let _ = writeln!(s, "warning: {w}");
        }
        let _ = writeln!(s, "{:<52}{:>14}{:>14}{:>9}", "key", "old", "new", "delta");
        for d in self.changed() {
            let pct = d.pct().map_or("n/a".to_string(), |p| format!("{p:+.1}%"));
            let _ = writeln!(s, "{:<52}{:>14}{:>14}{:>9}", d.key, d.old, d.new, pct);
        }
        if !self.only_old.is_empty() {
            let _ = writeln!(s, "only in old: {}", self.only_old.join(", "));
        }
        if !self.only_new.is_empty() {
            let _ = writeln!(s, "only in new: {}", self.only_new.join(", "));
        }
        let _ = writeln!(
            s,
            "{} keys compared, {} changed",
            self.deltas.len(),
            self.changed().count()
        );
        s
    }

    /// Machine-readable summary (`--json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"tlt-benchcmp/v2\",\n");
        let _ = writeln!(s, "  \"changed\": {},", self.changed().count());
        s.push_str("  \"deltas\": [\n");
        for (i, d) in self.deltas.iter().enumerate() {
            s.push_str("    {\"key\": ");
            json::push_str(&mut s, &d.key);
            let _ = write!(
                s,
                ", \"old\": {}, \"new\": {}, \"pct\": {}}}",
                d.old,
                d.new,
                d.pct().map_or("null".to_string(), |p| format!("{p:.4}"))
            );
            s.push_str(if i + 1 < self.deltas.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Provenance keys that make two artifacts incomparable when they differ.
const STRICT_META: [&str; 3] = ["scale", "build_profile", "seeds"];

/// Compares two flattened artifacts. Provenance mismatches populate
/// `refusal`/`warnings` (the caller decides whether `--force` overrides a
/// refusal).
pub fn compare(old: &Doc, new: &Doc) -> Comparison {
    let mut warnings = Vec::new();
    let mut refusals = Vec::new();
    if old.schema != new.schema {
        refusals.push(format!(
            "schema mismatch: old is {:?}, new is {:?}",
            old.schema, new.schema
        ));
    }
    for key in STRICT_META {
        match (old.meta.get(key), new.meta.get(key)) {
            (Some(a), Some(b)) if a != b => {
                refusals.push(format!("{key} mismatch: old is {a:?}, new is {b:?}"));
            }
            (None, Some(_)) | (Some(_), None) => warnings.push(format!(
                "{key} provenance missing from one side; comparability unverified"
            )),
            _ => {}
        }
    }

    let mut deltas = Vec::new();
    let mut only_old = Vec::new();
    for (key, &o) in &old.nums {
        match new.nums.get(key) {
            Some(&n) => deltas.push(Delta {
                key: key.clone(),
                old: o,
                new: n,
            }),
            None => only_old.push(key.clone()),
        }
    }
    let only_new = new
        .nums
        .keys()
        .filter(|k| !old.nums.contains_key(*k))
        .cloned()
        .collect();
    Comparison {
        deltas,
        only_old,
        only_new,
        warnings,
        refusal: (!refusals.is_empty()).then(|| refusals.join("; ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(sent: u64, build: Option<&str>, scale: &str) -> String {
        let mut reg = Registry::new();
        reg.inc("data_pkts_sent", sent);
        reg.gauge_max("queue_peak_bytes", 9000);
        reg.observe("fct_us", 250);
        reg.set_meta("scale", scale);
        if let Some(b) = build {
            reg.set_meta("build_profile", b);
        }
        reg.to_json()
    }

    #[test]
    fn parses_and_flattens_metrics() {
        let doc = load(&metrics(128, Some("release"), "quick")).unwrap();
        assert_eq!(doc.schema, "tlt-metrics/v1");
        assert_eq!(doc.nums["counter/data_pkts_sent"], 128);
        assert_eq!(doc.nums["gauge/queue_peak_bytes"], 9000);
        assert_eq!(doc.nums["hist/fct_us/count"], 1);
        assert_eq!(doc.nums["hist/fct_us/sum"], 250);
        assert_eq!(doc.nums["hist/fct_us/max"], 250);
        assert_eq!(doc.meta.get("scale").map(String::as_str), Some("quick"));
    }

    #[test]
    fn parses_and_flattens_profile() {
        let mut p = Profile::new();
        p.reg.inc("event_exec/deliver", 42);
        p.reg.gauge_max("queue_peak_depth", 7);
        p.reg.observe("queue_depth", 3);
        p.reg.set_meta("scale", "quick");
        p.series_mut("events").record(eventsim::SimTime::ZERO, 5);
        p.series_mut("events")
            .record(eventsim::SimTime::from_ns(1_000_000), 6);
        let doc = load(&p.to_json()).unwrap();
        assert_eq!(doc.schema, "tlt-profile/v1");
        assert_eq!(doc.nums["counter/event_exec/deliver"], 42);
        assert_eq!(doc.nums["gauge/queue_peak_depth"], 7);
        assert_eq!(doc.nums["hist/queue_depth/count"], 1);
        assert_eq!(doc.nums["series/events/sum"], 11);
        assert_eq!(doc.nums["series/events/count"], 2);
        assert_eq!(doc.meta.get("scale").map(String::as_str), Some("quick"));
    }

    #[test]
    fn parses_and_flattens_serve_report() {
        let mut r = ServeReport::new();
        r.reg.inc("serve_requests/dctcp", 200);
        r.reg.inc("serve_slo_viol_timeout/dctcp", 3);
        r.reg.observe("serve_req_latency_ns/dctcp", 800_000);
        r.reg.set_meta("scale", "k8");
        let doc = load(&r.to_json()).unwrap();
        assert_eq!(doc.schema, "tlt-serve/v1");
        assert_eq!(doc.nums["counter/serve_requests/dctcp"], 200);
        assert_eq!(doc.nums["counter/serve_slo_viol_timeout/dctcp"], 3);
        assert_eq!(doc.nums["hist/serve_req_latency_ns/dctcp/count"], 1);
        assert_eq!(doc.meta.get("scale").map(String::as_str), Some("k8"));
    }

    fn spans(scale: u64) -> String {
        let mut rep = SpanReport::new();
        let mut phases = telemetry::PhaseTimes::default();
        phases.add(telemetry::Phase::Serialization, 64_000 * scale);
        phases.add(telemetry::Phase::RtoStall, 4_000_000 * scale);
        rep.record_flow("dctcp+tlt", &phases, phases.total(), 0);
        rep.record_violation("dctcp+tlt", telemetry::Phase::RtoStall);
        rep.reg.set_meta("scale", "k8");
        rep.to_json()
    }

    #[test]
    fn parses_and_flattens_spans_report() {
        let doc = load(&spans(1)).unwrap();
        assert_eq!(doc.schema, "tlt-spans/v1");
        assert_eq!(doc.nums["counter/span_flows/dctcp+tlt"], 1);
        assert_eq!(
            doc.nums["hist/span_phase_ns/dctcp+tlt/rto_stall/sum"],
            4_000_000
        );
        assert_eq!(doc.nums["hist/span_fct_ns/dctcp+tlt/count"], 1);
        assert_eq!(doc.nums["counter/serve_viol_phase/dctcp+tlt/rto_stall"], 1);
        assert_eq!(doc.meta.get("scale").map(String::as_str), Some("k8"));
        // A 10x phase-time shift moves the sums and maxima, not the counts.
        let cmp = compare(&doc, &load(&spans(10)).unwrap());
        assert!(cmp.refusal.is_none());
        assert!(cmp.changed().all(|d| !d.key.ends_with("/count")));
        assert!(cmp
            .changed()
            .any(|d| d.key == "hist/span_phase_ns/dctcp+tlt/rto_stall/sum"));
    }

    #[test]
    fn reports_exactly_the_keys_that_moved() {
        let old = load(&metrics(128, Some("release"), "quick")).unwrap();
        let same = compare(&old, &old);
        assert_eq!(same.changed().count(), 0);
        assert!(same.render().contains("5 keys compared, 0 changed"));

        let new = load(&metrics(192, Some("release"), "quick")).unwrap();
        let cmp = compare(&old, &new);
        assert!(cmp.refusal.is_none());
        let moved: Vec<_> = cmp.changed().collect();
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].key, "counter/data_pkts_sent");
        assert_eq!(moved[0].pct(), Some(50.0));
        let table = cmp.render();
        assert!(table.contains("+50.0%"), "{table}");
        assert!(table.contains("5 keys compared, 1 changed"), "{table}");
        assert!(cmp.to_json().contains("\"changed\": 1,"));
    }

    #[test]
    fn json_summary_escapes_keys() {
        let doc = |n| {
            let mut reg = Registry::new();
            reg.inc("a\"b\\c", n);
            load(&reg.to_json()).unwrap()
        };
        let js = compare(&doc(0), &doc(5)).to_json();
        let v = json::parse(&js).expect("--json output is JSON");
        let delta = &v.get("deltas").unwrap().items()[0];
        let key = delta.get("key").and_then(Value::as_str);
        assert_eq!(key, Some("counter/a\"b\\c"), "{js}");
        assert_eq!(delta.get("new").and_then(Value::as_u64), Some(5));
    }

    #[test]
    fn provenance_mismatch_refuses_and_missing_only_warns() {
        let release = load(&metrics(1, Some("release"), "quick")).unwrap();
        let debug = load(&metrics(1, Some("debug"), "quick")).unwrap();
        let cmp = compare(&release, &debug);
        assert!(cmp.refusal.as_deref().unwrap().contains("build_profile"));

        let unstamped = load(&metrics(1, None, "quick")).unwrap();
        let cmp = compare(&unstamped, &release);
        assert!(cmp.refusal.is_none());
        assert!(cmp.warnings.iter().any(|w| w.contains("build_profile")));

        let full = load(&metrics(1, Some("release"), "full")).unwrap();
        let cmp = compare(&release, &full);
        assert!(cmp.refusal.as_deref().unwrap().contains("scale"));

        let cmp = compare(&release, &load(&spans(1)).unwrap());
        assert!(cmp.refusal.as_deref().unwrap().contains("schema mismatch"));
    }

    #[test]
    fn rejects_malformed_and_unknown_documents() {
        assert!(load("").is_err());
        assert!(load("{").is_err());
        let unknown = load("{\"schema\": \"wat/v9\"}").unwrap_err();
        assert!(unknown.contains("unsupported schema"), "{unknown}");
        assert!(unknown.contains("wat/v9"), "{unknown}");
        assert!(load("{}").unwrap_err().contains("missing"));
        let good = metrics(128, Some("release"), "quick");
        assert!(load(&format!("{good}garbage")).is_err());
        // Every truncation of a valid document fails cleanly, never panics.
        for doc in [good, spans(1)] {
            for cut in 0..doc.trim_end().len() {
                assert!(load(&doc[..cut]).is_err(), "{cut}");
            }
        }
    }
}
