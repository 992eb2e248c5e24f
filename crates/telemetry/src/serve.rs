//! The serve key layout of `tlt-metrics/v1`: per-request SLO accounting
//! for the serving workload (`crates/serve`).
//!
//! `serve::account` returns an [`Artifact`] whose registry names follow a
//! fixed layout, keyed by scheme label (e.g. `dctcp+tlt`):
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
//! * `serve_rtos/<scheme>` — the run's RTOs (its forensic record count),
//!   which bound the timeout overruns,
//! * `serve_viol_cause/<scheme>/<cause>` — timeout-violation breakdown by
//!   forensic RTO cause (`tail_drop`, `color_drop`, ...).
//!
//! The per-request sample vectors never exist: each request folds into the
//! histogram at completion, so a k=24 fat-tree run costs the same memory as
//! a k=8 one (the Zhao-et-al. bounded/mergeable tail-estimation bar).
//!
//! A serve report is an ordinary artifact, so it merges deterministically
//! in plan order, `trace_inspect --metrics` renders its SLO table, and
//! `trace_inspect --diff` flattens it like any other export.

use std::fmt::Write as _;

use crate::artifact::Artifact;

/// Histogram-name prefix for per-scheme request latency.
pub const REQ_LATENCY_PREFIX: &str = "serve_req_latency_ns/";

impl Artifact {
    /// The scheme labels that recorded a request latency histogram, in name
    /// order.
    pub fn serve_schemes(&self) -> Vec<String> {
        self.reg
            .hists()
            .filter_map(|(k, _)| k.strip_prefix(REQ_LATENCY_PREFIX).map(|s| s.to_string()))
            .collect()
    }

    /// The SLO view: the per-scheme request-latency table plus the
    /// timeout-violation cause breakdown.
    pub(crate) fn render_serve(&self, s: &mut String) {
        let schemes = self.serve_schemes();
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Artifact {
        let mut r = Artifact::new();
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
    fn render_shows_slo_table_and_cause_breakdown() {
        let r = sample_report();
        let text = r.render();
        assert!(text.contains("scheme"), "{text}");
        assert!(text.contains("dctcp+tlt"), "{text}");
        assert!(text.contains("p999(ns)"), "{text}");
        assert!(text.contains("timeout-violation causes"), "{text}");
        assert!(text.contains("dctcp/tail_drop"), "{text}");
        assert!(text.contains("2000000"), "{text}");
        assert_eq!(
            r.serve_schemes(),
            vec!["dctcp".to_string(), "dctcp+tlt".into()]
        );
        // The p50 estimate for 100 samples of 10k..=1M sits near 500k with
        // the log-linear bucket error bound.
        let h = r.reg.hist("serve_req_latency_ns/dctcp").unwrap();
        let p50 = h.quantile_permille(500);
        assert!((440_000..=560_000).contains(&p50), "{p50}");
    }
}
