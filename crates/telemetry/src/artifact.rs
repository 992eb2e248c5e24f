//! The one artifact document, `tlt-metrics/v1`.
//!
//! Every export the harness writes — `--metrics`, `--profile-out`,
//! `serve_grid --serve-out` and `--spans-out` — is an [`Artifact`]: a
//! [`Registry`] body (`meta`/`counters`/`gauges`/`hists`) plus two optional
//! sections, each written only when non-empty:
//!
//! * `series` — named sim-time [`TimeSeries`] (the engine profiler's
//!   `events`, `inflight_pkts`, `queue_bytes`; see [`crate::profile`]),
//! * `spans` — the worst-request reservoir of [`RequestSpan`] trees (see
//!   [`crate::spans`]).
//!
//! An artifact with neither section is byte-for-byte a registry export, so
//! [`Registry::to_json`] and [`Artifact::to_json`] share one encoder. What
//! kind of run produced a document is read from its keys, not from a tag:
//! [`Artifact::render`] prints the serve SLO table when
//! `serve_req_latency_ns/*` hists exist, the phase table when
//! `span_fct_ns/*` hists or spans exist, the profiler tables when series
//! exist, and the plain registry dump otherwise. `trace_inspect --metrics`
//! renders any artifact and holds it to its invariants
//! ([`Artifact::validate`]); `trace_inspect --diff` compares two
//! ([`crate::diff`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Cursor;
use crate::profile::TimeSeries;
use crate::registry::{self, Registry};
use crate::serve::REQ_LATENCY_PREFIX;
use crate::spans::{self, RequestSpan, SPAN_FCT_PREFIX};

/// The schema tag every artifact carries.
pub const METRICS_SCHEMA: &str = "tlt-metrics/v1";

/// A `tlt-metrics/v1` document: the registry body plus the optional
/// `series` and `spans` sections.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Artifact {
    /// Counters, gauges, histograms and provenance metadata.
    pub reg: Registry,
    /// Named sim-time series (engine profiles).
    pub series: BTreeMap<String, TimeSeries>,
    /// Worst-request reservoir in [`RequestSpan`] key order, at most
    /// [`spans::TOP_K_REQUESTS`] long (latency-ledger exports).
    pub spans: Vec<RequestSpan>,
}

impl Artifact {
    /// An empty artifact.
    pub fn new() -> Artifact {
        Artifact::default()
    }

    /// Folds `other` into `self` (the plan-order fold): the registry merges
    /// (counters sum, gauges max, hists bucket-merge, meta first-wins),
    /// series merge window-aligned, and the reservoirs concatenate, re-sort
    /// on their total key and truncate — order-independent by construction.
    pub fn merge(&mut self, other: &Artifact) {
        self.reg.merge(&other.reg);
        for (k, s) in &other.series {
            match self.series.get_mut(k) {
                Some(mine) => mine.merge(s),
                None => {
                    self.series.insert(k.clone(), s.clone());
                }
            }
        }
        if !other.spans.is_empty() {
            self.spans.extend(other.spans.iter().cloned());
            self.seal_reservoir();
        }
    }

    /// Every counter, gauge, histogram and series name, the keys the
    /// schema declares.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        (self.reg.counters().map(|(k, _)| k))
            .chain(self.reg.gauges().map(|(k, _)| k))
            .chain(self.reg.hists().map(|(k, _)| k))
            .chain(self.series.keys().map(String::as_str))
    }

    /// Serializes as `tlt-metrics/v1` JSON (name-sorted, byte-stable).
    pub fn to_json(&self) -> String {
        encode(&self.reg, &self.series, &self.spans)
    }

    /// Parses a `tlt-metrics/v1` document, reporting why (and roughly
    /// where) a malformed or truncated file was rejected. Any other schema
    /// tag is refused with an error naming `tlt-metrics/v1`.
    pub fn parse(text: &str) -> Result<Artifact, String> {
        let mut c = Cursor::new(text);
        let mut a = Artifact::new();
        let mut saw_schema = false;
        c.object(|c, key| {
            match &*key {
                "schema" => {
                    let got = c.string()?;
                    if got != METRICS_SCHEMA {
                        return Err(format!(
                            "schema mismatch: expected {METRICS_SCHEMA:?}, found {got:?}"
                        ));
                    }
                    saw_schema = true;
                }
                "series" => c.object(|c, name| {
                    let ts = TimeSeries::parse(c).map_err(|e| format!("series {name:?}: {e}"))?;
                    a.series.insert(name.into_owned(), ts);
                    Ok(())
                })?,
                "spans" => c.array(|c| {
                    a.spans.push(spans::parse_span(c)?);
                    Ok(())
                })?,
                _ => {
                    if !a.reg.parse_body_key(c, &key)? {
                        return Err(format!("unknown key {key:?} in {METRICS_SCHEMA} JSON"));
                    }
                }
            }
            Ok(())
        })?;
        c.end()?;
        if !saw_schema {
            return Err("missing \"schema\" key".to_string());
        }
        Ok(a)
    }

    /// Renders the human-readable summary `trace_inspect --metrics` prints:
    /// one header with the provenance, then every view whose data is
    /// present (see the module docs).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "metrics ({METRICS_SCHEMA}): {} counters, {} gauges, {} hists, {} series, {} spans",
            self.reg.counters().count(),
            self.reg.gauges().count(),
            self.reg.hists().count(),
            self.series.len(),
            self.spans.len()
        );
        if self.reg.meta().next().is_some() {
            let _ = writeln!(s, "  meta:");
            for (k, v) in self.reg.meta() {
                let _ = writeln!(s, "    {k:<42} {v}");
            }
        }
        let has_hist = |prefix: &str| self.reg.hists().any(|(k, _)| k.starts_with(prefix));
        let mut shown = false;
        if has_hist(REQ_LATENCY_PREFIX) {
            self.render_serve(&mut s);
            shown = true;
        }
        if has_hist(SPAN_FCT_PREFIX) || !self.spans.is_empty() {
            self.render_spans(&mut s);
            shown = true;
        }
        if !self.series.is_empty() {
            self.render_profile(&mut s);
            shown = true;
        }
        if !shown {
            self.reg.render_body(&mut s);
        }
        s
    }
}

/// The one `tlt-metrics/v1` encoder: the schema tag, the registry body, and
/// each optional section that holds anything.
pub(crate) fn encode(
    reg: &Registry,
    series: &BTreeMap<String, TimeSeries>,
    spans: &[RequestSpan],
) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\n  \"schema\": \"");
    s.push_str(METRICS_SCHEMA);
    s.push('"');
    reg.push_body(&mut s);
    if !series.is_empty() {
        s.push_str(",\n  \"series\": {");
        registry::push_map(&mut s, series, |s, ts| ts.push_json(s));
        s.push('}');
    }
    if !spans.is_empty() {
        s.push_str(",\n  \"spans\": [");
        for (i, span) in spans.iter().enumerate() {
            s.push_str(if i == 0 { "\n    " } else { ",\n    " });
            spans::push_span(&mut s, span);
        }
        s.push_str("\n  ]");
    }
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Phase, PhaseTimes};
    use crate::spans::FlowSpan;
    use eventsim::SimTime;

    fn request(seed: u64, lat: u64) -> RequestSpan {
        let mut phases = PhaseTimes::default();
        phases.add(Phase::RtoStall, lat);
        RequestSpan {
            scheme: "dctcp \"q\" \\ µ".to_string(),
            seed,
            req: 1,
            start_ns: 10,
            latency_ns: lat,
            dominant: Phase::RtoStall,
            flows: vec![FlowSpan {
                id: 3,
                role: "query".to_string(),
                start_ns: 10,
                end_ns: 10 + lat,
                phases,
                stalls: Vec::new(),
            }],
        }
    }

    /// Every section populated, with escapes and a non-ASCII char.
    fn sample() -> Artifact {
        let mut a = Artifact::new();
        a.reg.set_meta("scale", "quick");
        a.reg.set_meta("note", "a \"quoted\" \\ note, µs");
        a.reg.inc("data_pkts_sent", 41);
        a.reg.gauge_max("queue_peak_depth", 12);
        a.reg.observe("fct_us", 250);
        a.series_mut("events").record(SimTime::from_ns(100), 1);
        a.push_request(request(1, 9_000));
        a
    }

    #[test]
    fn roundtrips_every_section_byte_stably() {
        let a = sample();
        let json = a.to_json();
        assert!(json.contains("\"series\": {"), "{json}");
        assert!(json.contains("\"spans\": ["), "{json}");
        let back = Artifact::parse(&json).expect("parses");
        assert_eq!(back, a);
        assert_eq!(back.to_json(), json);
    }

    /// A registry export is an artifact with no sections, byte for byte,
    /// and empty sections are never written.
    #[test]
    fn registry_export_is_the_sectionless_artifact() {
        let a = Artifact {
            reg: sample().reg,
            ..Artifact::new()
        };
        let json = a.to_json();
        assert_eq!(json, a.reg.to_json());
        assert!(
            !json.contains("series") && !json.contains("spans"),
            "{json}"
        );
        assert_eq!(Artifact::parse(&json).expect("parses"), a);
        assert_eq!(Artifact::new().to_json(), Registry::new().to_json());
    }

    /// The header and meta print once; with no view's keys present the
    /// plain registry dump follows.
    #[test]
    fn render_prints_meta_once_then_the_registry_dump() {
        let mut a = Artifact::new();
        a.reg.set_meta("scale", "quick");
        a.reg.inc("c", 1);
        a.reg.gauge_max("g", 2);
        a.reg.observe("h", 3);
        let text = a.render();
        assert!(
            text.starts_with("metrics (tlt-metrics/v1): 1 counters"),
            "{text}"
        );
        assert_eq!(text.matches("meta:").count(), 1, "{text}");
        for section in ["counters:", "gauges:", "hists:"] {
            assert!(text.contains(section), "{text}");
        }
        // A profile shows its tables instead of the dump.
        let text = sample().render();
        assert!(text.contains("series"), "{text}");
        assert!(text.contains("worst requests"), "{text}");
        assert!(!text.contains("counters:"), "{text}");
    }
}
