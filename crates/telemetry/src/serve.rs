//! The `tlt-serve/v1` schema: per-request SLO accounting for the serving
//! workload (`crates/serve`).
//!
//! A [`ServeReport`] wraps a [`Registry`] whose names follow a fixed layout,
//! keyed by scheme label (e.g. `dctcp+tlt`):
//!
//! * `serve_requests/<scheme>` — requests issued (counter),
//! * `serve_req_latency_ns/<scheme>` — request latency histogram (log-linear
//!   [`crate::Hist`], bounded memory, quantiles via
//!   [`crate::Hist::quantile_permille`]),
//! * `serve_slo_viol_timeout/<scheme>` — SLO overruns attributable to a
//!   retransmission timeout on one of the request's flows (joined against
//!   the RTO-forensics records),
//! * `serve_slo_viol_other/<scheme>` — overruns with no timeout involved
//!   (pure queueing/congestion),
//! * `serve_incomplete/<scheme>` — requests whose flows did not finish
//!   within the simulation horizon,
//! * `serve_viol_cause/<scheme>/<cause>` — timeout-violation breakdown by
//!   forensic RTO cause (`tail_drop`, `color_drop`, ...).
//!
//! The per-request sample vectors never exist: each request folds into the
//! histogram at completion, so a k=24 fat-tree run costs the same memory as
//! a k=8 one (the Zhao-et-al. bounded/mergeable tail-estimation bar).
//!
//! Serialization reuses the `tlt-metrics/v1` body encoder, so reports merge
//! deterministically in plan order and `benchcmp` flattens them like any
//! other registry export.

use std::fmt::Write as _;

use crate::registry::{self, Registry};

/// Export schema identifier written by [`ServeReport::to_json`].
pub const SERVE_SCHEMA: &str = "tlt-serve/v1";

/// Histogram-name prefix for per-scheme request latency.
pub const REQ_LATENCY_PREFIX: &str = "serve_req_latency_ns/";

/// A `tlt-serve/v1` report: a registry with the serve naming layout.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct ServeReport {
    /// Counters / histograms following the layout in the module docs, plus
    /// provenance metadata (`slo_ns`, `scale`, `seeds`, ...).
    pub reg: Registry,
}

impl ServeReport {
    /// An empty report.
    pub fn new() -> ServeReport {
        ServeReport::default()
    }

    /// Whether nothing was recorded (metadata aside).
    pub fn is_empty(&self) -> bool {
        self.reg.is_empty()
    }

    /// Folds `other` into `self` (the plan-order fold): counters sum, the
    /// latency histograms merge bucket-wise.
    pub fn merge(&mut self, other: &ServeReport) {
        self.reg.merge(&other.reg);
    }

    /// Serializes as `tlt-serve/v1` JSON (name-sorted, byte-stable).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n  \"schema\": \"");
        s.push_str(SERVE_SCHEMA);
        s.push('"');
        self.reg.push_body(&mut s);
        s.push_str("\n}\n");
        s
    }

    /// Parses a `tlt-serve/v1` JSON export, reporting why (and roughly
    /// where) a malformed or truncated file was rejected.
    pub fn parse(text: &str) -> Result<ServeReport, String> {
        registry::parse_envelope(text, SERVE_SCHEMA, "serve", |_, _| Ok(false))
            .map(|reg| ServeReport { reg })
    }

    /// The scheme labels that recorded a latency histogram, in name order.
    pub fn schemes(&self) -> Vec<String> {
        self.reg
            .hists()
            .filter_map(|(k, _)| k.strip_prefix(REQ_LATENCY_PREFIX).map(|s| s.to_string()))
            .collect()
    }

    /// Renders the per-scheme SLO table plus the timeout-violation cause
    /// breakdown.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "serve report ({SERVE_SCHEMA})");
        let meta: Vec<_> = self.reg.meta().collect();
        if !meta.is_empty() {
            let _ = write!(s, "  meta:");
            for (k, v) in meta {
                let _ = write!(s, " {k}={v}");
            }
            s.push('\n');
        }
        let schemes = self.schemes();
        if schemes.is_empty() {
            let _ = writeln!(s, "  (no request latency histograms)");
            return s;
        }
        let _ = writeln!(
            s,
            "  {:<16} {:>9} {:>12} {:>12} {:>12} {:>9} {:>9} {:>10}",
            "scheme",
            "requests",
            "p50(ns)",
            "p99(ns)",
            "p999(ns)",
            "viol:rto",
            "viol:oth",
            "incomplete"
        );
        for scheme in &schemes {
            let h = self
                .reg
                .hist(&format!("{REQ_LATENCY_PREFIX}{scheme}"))
                .expect("scheme derived from hist listing");
            let g = |pre: &str| self.reg.counter(&format!("{pre}/{scheme}"));
            let _ = writeln!(
                s,
                "  {scheme:<16} {:>9} {:>12} {:>12} {:>12} {:>9} {:>9} {:>10}",
                g("serve_requests"),
                h.quantile_permille(500),
                h.quantile_permille(990),
                h.quantile_permille(999),
                g("serve_slo_viol_timeout"),
                g("serve_slo_viol_other"),
                g("serve_incomplete"),
            );
        }
        let causes: Vec<(String, u64)> = self
            .reg
            .counters()
            .filter_map(|(k, v)| {
                k.strip_prefix("serve_viol_cause/")
                    .map(|k| (k.to_string(), v))
            })
            .filter(|&(_, v)| v > 0)
            .collect();
        if !causes.is_empty() {
            let _ = writeln!(s, "  timeout-violation causes:");
            for (k, v) in causes {
                let _ = writeln!(s, "    {k:<28} {v:>9}");
            }
        }
        s
    }
}

/// Parses serve-report JSON and renders the SLO table, forwarding the
/// positional parse diagnostic on failure (`trace_inspect --serve`).
pub fn serve_summary(text: &str) -> Result<String, String> {
    let rep = ServeReport::parse(text).map_err(|e| format!("invalid tlt-serve JSON: {e}"))?;
    Ok(rep.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ServeReport {
        let mut r = ServeReport::new();
        r.reg.set_meta("scale", "k8");
        r.reg.set_meta("slo_ns", "2000000");
        r.reg.set_meta("note", "a \"quoted\" \\ note, µs");
        r.reg.inc("odd \"key\" \\ µ", 1);
        for scheme in ["dctcp", "dctcp+tlt"] {
            r.reg.inc(&format!("serve_requests/{scheme}"), 100);
            let name = format!("{REQ_LATENCY_PREFIX}{scheme}");
            for i in 1..=100u64 {
                r.reg.observe(&name, i * 10_000);
            }
        }
        r.reg.inc("serve_slo_viol_timeout/dctcp", 7);
        r.reg.inc("serve_slo_viol_other/dctcp", 2);
        r.reg.inc("serve_incomplete/dctcp", 1);
        r.reg.inc("serve_viol_cause/dctcp/tail_drop", 5);
        r.reg.inc("serve_viol_cause/dctcp/pfc_pause", 2);
        r
    }

    #[test]
    fn serve_json_roundtrips_and_is_stable() {
        let r = sample_report();
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"tlt-serve/v1\""), "{json}");
        let back = ServeReport::parse(&json).expect("parses");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn serve_parse_rejects_corrupt_input_with_diagnostics() {
        let json = sample_report().to_json();
        crate::json::assert_every_prefix_rejected(&json, ServeReport::parse);
        let err = ServeReport::parse("{\"schema\": \"tlt-metrics/v1\"}").unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        let err = ServeReport::parse("{\"counters\": {}}").unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let err = serve_summary("nope").unwrap_err();
        assert!(err.contains("invalid tlt-serve JSON"), "{err}");
    }

    #[test]
    fn serve_merge_folds_counters_and_hists() {
        let mut a = sample_report();
        let mut b = ServeReport::new();
        b.reg.inc("serve_requests/dctcp", 50);
        b.reg.inc("serve_slo_viol_timeout/dctcp", 3);
        b.reg.observe("serve_req_latency_ns/dctcp", 5_000_000);
        a.merge(&b);
        assert_eq!(a.reg.counter("serve_requests/dctcp"), 150);
        assert_eq!(a.reg.counter("serve_slo_viol_timeout/dctcp"), 10);
        let h = a.reg.hist("serve_req_latency_ns/dctcp").unwrap();
        assert_eq!(h.count, 101);
        assert!(!a.is_empty());
        assert!(ServeReport::new().is_empty());
    }

    #[test]
    fn render_shows_slo_table_and_cause_breakdown() {
        let r = sample_report();
        let text = r.render();
        assert!(text.contains("scheme"), "{text}");
        assert!(text.contains("dctcp+tlt"), "{text}");
        assert!(text.contains("p999(ns)"), "{text}");
        assert!(text.contains("timeout-violation causes"), "{text}");
        assert!(text.contains("dctcp/tail_drop"), "{text}");
        assert!(text.contains("slo_ns=2000000"), "{text}");
        assert_eq!(r.schemes(), vec!["dctcp".to_string(), "dctcp+tlt".into()]);
        // The p50 estimate for 100 samples of 10k..=1M sits near 500k with
        // the log-linear bucket error bound.
        let h = r.reg.hist("serve_req_latency_ns/dctcp").unwrap();
        let p50 = h.quantile_permille(500);
        assert!((440_000..=560_000).contains(&p50), "{p50}");
        // An empty report still renders a header.
        let text = ServeReport::new().render();
        assert!(text.contains("no request latency"), "{text}");
    }
}
