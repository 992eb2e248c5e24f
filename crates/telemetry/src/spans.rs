//! The `tlt-spans/v1` schema: the latency ledger's per-scheme phase
//! decomposition plus the top-K-worst-request span trees.
//!
//! A [`SpanReport`] wraps a [`Registry`] whose names follow a fixed layout,
//! keyed by scheme label (e.g. `dctcp+tlt`):
//!
//! * `span_phase_ns/<scheme>/<phase>` — per-completed-flow nanoseconds
//!   attributed to that [`Phase`] (log-linear [`crate::Hist`], bounded
//!   memory at k=24 scale),
//! * `span_fct_ns/<scheme>` — the same flows' completion times,
//! * `span_flows/<scheme>` — completed flows folded in (counter),
//! * `span_unattributed_ns/<scheme>` — nanoseconds the ledger could not
//!   attribute to any phase. The conservation invariant is that this is
//!   **always zero** and `Σ_phase sum(span_phase_ns/<scheme>/<phase>) ==
//!   sum(span_fct_ns/<scheme>)` exactly — CI re-validates both from the
//!   exported JSON.
//! * `serve_viol_phase/<scheme>/<phase>` — SLO violations whose request
//!   latency was dominated by that phase (serving workload only).
//!
//! Alongside the registry, the report retains a deterministic reservoir of
//! the [`TOP_K_REQUESTS`] worst requests **in full**: a span tree per
//! request (request → query/response flows → stall intervals), ordered by
//! descending latency with a total `(scheme, seed, req)` tie-break so the
//! retained set is independent of merge order (`--jobs N` byte-equality).
//! [`SpanReport::to_perfetto`] converts the reservoir to Chrome/Perfetto
//! trace-event JSON so a p999 request can be inspected visually.
//!
//! Serialization reuses the `tlt-metrics/v1` body encoder plus a custom
//! `"spans"` section (the same wrapper pattern as `tlt-profile/v1`).

use std::fmt::Write as _;

use crate::event::{Phase, PhaseTimes};
use crate::json::{self, Cursor};
use crate::registry::{self, Registry};

/// Export schema identifier written by [`SpanReport::to_json`].
pub const SPANS_SCHEMA: &str = "tlt-spans/v1";

/// Histogram-name prefix for per-scheme per-phase attributed time.
pub const SPAN_PHASE_PREFIX: &str = "span_phase_ns/";

/// Histogram-name prefix for per-scheme flow completion time.
pub const SPAN_FCT_PREFIX: &str = "span_fct_ns/";

/// How many worst requests the span-tree reservoir retains in full.
pub const TOP_K_REQUESTS: usize = 8;

/// One stall interval inside a flow span (PFC pause, fast recovery, or RTO
/// stall — the phases that have a meaningful extent on a timeline).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StallSpan {
    /// Which stall phase.
    pub phase: Phase,
    /// Absolute sim-time start (ns).
    pub start_ns: u64,
    /// Interval length (ns).
    pub dur_ns: u64,
}

/// One flow's span inside a request tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlowSpan {
    /// Flow id in the simulation.
    pub id: u64,
    /// `"query"` or `"response"` (free-form for other workloads).
    pub role: String,
    /// Flow start (ns, absolute sim time).
    pub start_ns: u64,
    /// Flow completion (ns, absolute sim time).
    pub end_ns: u64,
    /// The flow's closed per-phase decomposition (`Σ == end - start`).
    pub phases: PhaseTimes,
    /// Stall intervals, in start order (bounded by the engine's ring).
    pub stalls: Vec<StallSpan>,
}

/// One request's full span tree, retained for the worst-K reservoir.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RequestSpan {
    /// Scheme label (`dctcp+tlt`, ...).
    pub scheme: String,
    /// Workload seed the request ran under.
    pub seed: u64,
    /// Request index within that seed's workload.
    pub req: u64,
    /// Request arrival (ns, absolute sim time).
    pub start_ns: u64,
    /// Request latency (ns; completion of the last response flow).
    pub latency_ns: u64,
    /// The phase dominating the summed flow decompositions.
    pub dominant: Phase,
    /// Child flow spans (queries then responses, id order within each).
    pub flows: Vec<FlowSpan>,
}

impl RequestSpan {
    /// Total reservoir order: descending latency, then ascending
    /// `(scheme, seed, req)` — unique per request, so any merge order of
    /// the same span multiset sorts to the same sequence.
    fn key(&self) -> (std::cmp::Reverse<u64>, &str, u64, u64) {
        (
            std::cmp::Reverse(self.latency_ns),
            self.scheme.as_str(),
            self.seed,
            self.req,
        )
    }
}

/// A `tlt-spans/v1` report: the phase-breakdown registry plus the worst-K
/// request span trees.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct SpanReport {
    /// Counters / histograms following the layout in the module docs, plus
    /// provenance metadata.
    pub reg: Registry,
    /// Worst-request reservoir, in [`RequestSpan::key`] order, at most
    /// [`TOP_K_REQUESTS`] long.
    pub spans: Vec<RequestSpan>,
}

impl SpanReport {
    /// An empty report.
    pub fn new() -> SpanReport {
        SpanReport::default()
    }

    /// Whether nothing was recorded (metadata aside).
    pub fn is_empty(&self) -> bool {
        self.reg.is_empty() && self.spans.is_empty()
    }

    /// Folds one completed flow's ledger row into the per-scheme hists.
    /// `unattributed_ns` must be zero when conservation holds; it is
    /// recorded (not asserted) so the exported artifact carries the proof.
    pub fn record_flow(
        &mut self,
        scheme: &str,
        phases: &PhaseTimes,
        fct_ns: u64,
        unattributed_ns: u64,
    ) {
        for (phase, ns) in phases.iter() {
            self.reg.observe(
                &format!("{SPAN_PHASE_PREFIX}{scheme}/{}", phase.as_str()),
                ns,
            );
        }
        self.reg
            .observe(&format!("{SPAN_FCT_PREFIX}{scheme}"), fct_ns);
        self.reg.inc(&format!("span_flows/{scheme}"), 1);
        self.reg
            .inc(&format!("span_unattributed_ns/{scheme}"), unattributed_ns);
    }

    /// Records one SLO violation's dominant phase (serving workload).
    pub fn record_violation(&mut self, scheme: &str, dominant: Phase) {
        self.reg.inc(
            &format!("serve_viol_phase/{scheme}/{}", dominant.as_str()),
            1,
        );
    }

    /// Offers a request span tree to the worst-K reservoir.
    pub fn push_request(&mut self, span: RequestSpan) {
        self.spans.push(span);
        self.seal_reservoir();
    }

    fn seal_reservoir(&mut self) {
        self.spans.sort_by(|a, b| a.key().cmp(&b.key()));
        self.spans.dedup_by(|a, b| a.key() == b.key());
        self.spans.truncate(TOP_K_REQUESTS);
    }

    /// Folds `other` into `self` (the plan-order fold): registry sections
    /// merge as in `tlt-metrics/v1`; the reservoirs concatenate, re-sort on
    /// the total key, and truncate — order-independent by construction.
    pub fn merge(&mut self, other: &SpanReport) {
        self.reg.merge(&other.reg);
        self.spans.extend(other.spans.iter().cloned());
        self.seal_reservoir();
    }

    /// The scheme labels that recorded an FCT histogram, in name order.
    pub fn schemes(&self) -> Vec<String> {
        self.reg
            .hists()
            .filter_map(|(k, _)| k.strip_prefix(SPAN_FCT_PREFIX).map(|s| s.to_string()))
            .collect()
    }

    /// The conservation residue for `scheme`: `Σ phase sums - FCT sum`
    /// (signed) plus the recorded unattributed time. Zero iff closed.
    pub fn conservation_residue(&self, scheme: &str) -> i128 {
        let phase_sum: i128 = Phase::ALL
            .iter()
            .filter_map(|p| {
                self.reg
                    .hist(&format!("{SPAN_PHASE_PREFIX}{scheme}/{}", p.as_str()))
                    .map(|h| h.sum as i128)
            })
            .sum();
        let fct_sum = self
            .reg
            .hist(&format!("{SPAN_FCT_PREFIX}{scheme}"))
            .map_or(0, |h| h.sum as i128);
        let unattributed = self.reg.counter(&format!("span_unattributed_ns/{scheme}")) as i128;
        phase_sum - fct_sum + unattributed
    }

    /// Serializes as `tlt-spans/v1` JSON (name-sorted, byte-stable).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n  \"schema\": \"");
        s.push_str(SPANS_SCHEMA);
        s.push('"');
        self.reg.push_body(&mut s);
        s.push_str(",\n  \"spans\": [");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            push_span(&mut s, span);
        }
        if !self.spans.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Parses a `tlt-spans/v1` JSON export, reporting why (and roughly
    /// where) a malformed or truncated file was rejected.
    pub fn parse(text: &str) -> Result<SpanReport, String> {
        let mut spans = Vec::new();
        let reg = registry::parse_envelope(text, SPANS_SCHEMA, "spans", |key, c| {
            if key != "spans" {
                return Ok(false);
            }
            c.array(|c| {
                spans.push(parse_span(c)?);
                Ok(())
            })?;
            Ok(true)
        })?;
        Ok(SpanReport { reg, spans })
    }

    /// Renders the per-scheme "phase × percentile" table (where p50 vs p99
    /// vs p999 live) plus the worst-request reservoir summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "spans report ({SPANS_SCHEMA})");
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
            let _ = writeln!(s, "  (no span histograms)");
            return s;
        }
        for scheme in &schemes {
            let fct = self
                .reg
                .hist(&format!("{SPAN_FCT_PREFIX}{scheme}"))
                .expect("scheme derived from hist listing");
            let _ = writeln!(
                s,
                "  {scheme}: flows={} fct p50={} p99={} p999={} residue={}",
                self.reg.counter(&format!("span_flows/{scheme}")),
                fct.quantile_permille(500),
                fct.quantile_permille(990),
                fct.quantile_permille(999),
                self.conservation_residue(scheme),
            );
            let _ = writeln!(
                s,
                "    {:<14} {:>8} {:>12} {:>12} {:>12} {:>16}",
                "phase", "share", "p50(ns)", "p99(ns)", "p999(ns)", "total(ns)"
            );
            for phase in Phase::ALL {
                let Some(h) = self
                    .reg
                    .hist(&format!("{SPAN_PHASE_PREFIX}{scheme}/{}", phase.as_str()))
                else {
                    continue;
                };
                let permille = if fct.sum > 0 {
                    (h.sum as u128 * 1000 / fct.sum as u128) as u64
                } else {
                    0
                };
                let _ = writeln!(
                    s,
                    "    {:<14} {:>5}.{}% {:>12} {:>12} {:>12} {:>16}",
                    phase.as_str(),
                    permille / 10,
                    permille % 10,
                    h.quantile_permille(500),
                    h.quantile_permille(990),
                    h.quantile_permille(999),
                    h.sum,
                );
            }
        }
        let viols: Vec<(String, u64)> = self
            .reg
            .counters()
            .filter_map(|(k, v)| {
                k.strip_prefix("serve_viol_phase/")
                    .map(|k| (k.to_string(), v))
            })
            .filter(|&(_, v)| v > 0)
            .collect();
        if !viols.is_empty() {
            let _ = writeln!(s, "  SLO violations by dominant phase:");
            for (k, v) in viols {
                let _ = writeln!(s, "    {k:<34} {v:>9}");
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(s, "  worst requests (top {}):", self.spans.len());
            for span in &self.spans {
                let _ = writeln!(
                    s,
                    "    {} seed={} req={} lat={}ns dom={} flows={}",
                    span.scheme,
                    span.seed,
                    span.req,
                    span.latency_ns,
                    span.dominant.as_str(),
                    span.flows.len(),
                );
            }
        }
        s
    }

    /// Converts the worst-request reservoir to Chrome/Perfetto trace-event
    /// JSON (`ph:"X"` complete events; one pid per request, one tid per
    /// flow; stall intervals overlaid on the flow's tid). All values are
    /// integers in nanoseconds, so the output is byte-deterministic.
    pub fn to_perfetto(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"schema\":\"");
        s.push_str(SPANS_SCHEMA);
        s.push_str("\"},\"traceEvents\":[");
        let mut first = true;
        let mut emit = |s: &mut String,
                        name: &str,
                        cat: &str,
                        ts: u64,
                        dur: u64,
                        pid: usize,
                        tid: usize| {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str("\n{\"name\":");
            json::push_str(s, name);
            let _ = write!(
                s,
                ",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid}}}"
            );
        };
        for (i, span) in self.spans.iter().enumerate() {
            let pid = i + 1;
            let name = format!(
                "req {}/s{}/r{} dom={}",
                span.scheme,
                span.seed,
                span.req,
                span.dominant.as_str()
            );
            emit(
                &mut s,
                &name,
                "request",
                span.start_ns,
                span.latency_ns,
                pid,
                0,
            );
            for (j, flow) in span.flows.iter().enumerate() {
                let tid = j + 1;
                let name = format!("flow {} {}", flow.id, flow.role);
                let dur = flow.end_ns.saturating_sub(flow.start_ns);
                emit(&mut s, &name, "flow", flow.start_ns, dur, pid, tid);
                for stall in &flow.stalls {
                    emit(
                        &mut s,
                        stall.phase.as_str(),
                        "stall",
                        stall.start_ns,
                        stall.dur_ns,
                        pid,
                        tid,
                    );
                }
            }
        }
        if !first {
            s.push('\n');
        }
        s.push_str("]}\n");
        s
    }
}

fn push_phases(s: &mut String, phases: &PhaseTimes) {
    s.push('{');
    let mut first = true;
    for (phase, ns) in phases.iter() {
        if ns == 0 {
            continue;
        }
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "\"{}\":{ns}", phase.as_str());
    }
    s.push('}');
}

fn push_span(s: &mut String, span: &RequestSpan) {
    s.push_str("{\"scheme\":");
    json::push_str(s, &span.scheme);
    let _ = write!(
        s,
        ",\"seed\":{},\"req\":{},\"start\":{},\"lat\":{},\"dom\":\"{}\",\"flows\":[",
        span.seed,
        span.req,
        span.start_ns,
        span.latency_ns,
        span.dominant.as_str()
    );
    for (i, flow) in span.flows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"id\":{},\"role\":", flow.id);
        json::push_str(s, &flow.role);
        let _ = write!(
            s,
            ",\"start\":{},\"end\":{},\"phases\":",
            flow.start_ns, flow.end_ns
        );
        push_phases(s, &flow.phases);
        s.push_str(",\"stalls\":[");
        for (j, stall) in flow.stalls.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"phase\":\"{}\",\"start\":{},\"dur\":{}}}",
                stall.phase.as_str(),
                stall.start_ns,
                stall.dur_ns
            );
        }
        s.push_str("]}");
    }
    s.push_str("]}");
}

fn parse_phase_tag(tag: &str) -> Result<Phase, String> {
    Phase::parse(tag).ok_or_else(|| format!("unknown phase tag {tag:?}"))
}

fn parse_phases(c: &mut Cursor) -> Result<PhaseTimes, String> {
    let mut out = PhaseTimes::default();
    c.object(|c, tag| {
        let ns = c.u64()?;
        let phase = parse_phase_tag(&tag)?;
        // A repeated tag would sum, and could overflow.
        if out.get(phase) != 0 {
            return Err(format!("duplicate phase tag {tag:?}"));
        }
        out.add(phase, ns);
        Ok(())
    })?;
    Ok(out)
}

fn parse_stall(c: &mut Cursor) -> Result<StallSpan, String> {
    let (mut phase, mut start, mut dur) = (None, None, None);
    c.object(|c, key| {
        match &*key {
            "phase" => phase = Some(parse_phase_tag(&c.string()?)?),
            "start" => start = Some(c.u64()?),
            "dur" => dur = Some(c.u64()?),
            _ => return Err(format!("unknown stall field {key:?}")),
        }
        Ok(())
    })?;
    match (phase, start, dur) {
        (Some(phase), Some(start_ns), Some(dur_ns)) => Ok(StallSpan {
            phase,
            start_ns,
            dur_ns,
        }),
        _ => Err("stall span missing phase/start/dur".to_string()),
    }
}

fn parse_flow(c: &mut Cursor) -> Result<FlowSpan, String> {
    let mut flow = FlowSpan {
        id: 0,
        role: String::new(),
        start_ns: 0,
        end_ns: 0,
        phases: PhaseTimes::default(),
        stalls: Vec::new(),
    };
    let mut saw_id = false;
    c.object(|c, key| {
        match &*key {
            "id" => {
                flow.id = c.u64()?;
                saw_id = true;
            }
            "role" => flow.role = c.string()?.into_owned(),
            "start" => flow.start_ns = c.u64()?,
            "end" => flow.end_ns = c.u64()?,
            "phases" => flow.phases = parse_phases(c)?,
            "stalls" => c.array(|c| {
                flow.stalls.push(parse_stall(c)?);
                Ok(())
            })?,
            _ => return Err(format!("unknown flow-span field {key:?}")),
        }
        Ok(())
    })?;
    if !saw_id {
        return Err("flow span missing id".to_string());
    }
    Ok(flow)
}

fn parse_span(c: &mut Cursor) -> Result<RequestSpan, String> {
    let mut span = RequestSpan {
        scheme: String::new(),
        seed: 0,
        req: 0,
        start_ns: 0,
        latency_ns: 0,
        dominant: Phase::ALL[0],
        flows: Vec::new(),
    };
    let mut saw_scheme = false;
    c.object(|c, key| {
        match &*key {
            "scheme" => {
                span.scheme = c.string()?.into_owned();
                saw_scheme = true;
            }
            "seed" => span.seed = c.u64()?,
            "req" => span.req = c.u64()?,
            "start" => span.start_ns = c.u64()?,
            "lat" => span.latency_ns = c.u64()?,
            "dom" => span.dominant = parse_phase_tag(&c.string()?)?,
            "flows" => c.array(|c| {
                span.flows.push(parse_flow(c)?);
                Ok(())
            })?,
            _ => return Err(format!("unknown request-span field {key:?}")),
        }
        Ok(())
    })?;
    if !saw_scheme {
        return Err("request span missing scheme".to_string());
    }
    Ok(span)
}

/// Parses span-report JSON and renders the phase × percentile table,
/// forwarding the positional parse diagnostic on failure
/// (`trace_inspect --spans`).
pub fn spans_summary(text: &str) -> Result<String, String> {
    let rep = SpanReport::parse(text).map_err(|e| format!("invalid tlt-spans JSON: {e}"))?;
    Ok(rep.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span(scheme: &str, seed: u64, req: u64, lat: u64) -> RequestSpan {
        let mut phases = PhaseTimes::default();
        phases.add(Phase::Propagation, lat / 2);
        phases.add(Phase::RtoStall, lat - lat / 2);
        RequestSpan {
            scheme: scheme.to_string(),
            seed,
            req,
            start_ns: 100,
            latency_ns: lat,
            dominant: Phase::RtoStall,
            flows: vec![FlowSpan {
                id: 7,
                role: "query".to_string(),
                start_ns: 100,
                end_ns: 100 + lat,
                phases,
                stalls: vec![StallSpan {
                    phase: Phase::RtoStall,
                    start_ns: 150,
                    dur_ns: lat / 3,
                }],
            }],
        }
    }

    fn sample_report() -> SpanReport {
        let mut r = SpanReport::new();
        r.reg.set_meta("scale", "k8");
        r.reg.set_meta("note", "a \"quoted\" \\ note, µs");
        r.reg.inc("odd \"key\" \\ µ", 1);
        for scheme in ["dctcp", "dctcp+tlt"] {
            for i in 1..=50u64 {
                let mut phases = PhaseTimes::default();
                phases.add(Phase::Serialization, i * 10);
                phases.add(Phase::Propagation, i * 100);
                phases.add(Phase::SwitchQueue, i * 7);
                if scheme == "dctcp" {
                    phases.add(Phase::RtoStall, i * 1000);
                }
                r.record_flow(scheme, &phases, phases.total(), 0);
            }
        }
        r.record_violation("dctcp", Phase::RtoStall);
        r.push_request(sample_span("dctcp", 1, 5, 9_000_000));
        r.push_request(sample_span("dctcp", 2, 3, 4_000_000));
        r
    }

    #[test]
    fn spans_json_roundtrips_and_is_stable() {
        let r = sample_report();
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"tlt-spans/v1\""), "{json}");
        let back = SpanReport::parse(&json).expect("parses");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
        // Empty report round-trips too (empty spans array).
        let empty = SpanReport::new().to_json();
        assert_eq!(
            SpanReport::parse(&empty).expect("parses"),
            SpanReport::new()
        );
    }

    #[test]
    fn spans_parse_rejects_corrupt_input_with_diagnostics() {
        let json = sample_report().to_json();
        crate::json::assert_every_prefix_rejected(&json, SpanReport::parse);
        let err = SpanReport::parse("{\"schema\": \"tlt-metrics/v1\"}").unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        let err = SpanReport::parse("{\"counters\": {}}").unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let bad_phase = json.replace("rto_stall", "rto_stallz");
        assert!(SpanReport::parse(&bad_phase).is_err());
        let twice = json.replacen("\"phases\":{", "\"phases\":{\"rto_stall\":1,", 1);
        let err = SpanReport::parse(&twice).unwrap_err();
        assert!(err.contains("duplicate phase tag"), "{err}");
        let err = spans_summary("nope").unwrap_err();
        assert!(err.contains("invalid tlt-spans JSON"), "{err}");
    }

    #[test]
    fn conservation_residue_is_closed_for_recorded_flows() {
        let r = sample_report();
        for scheme in r.schemes() {
            assert_eq!(r.conservation_residue(&scheme), 0, "{scheme}");
        }
        // A flow with unattributed time shows a positive residue.
        let mut r = SpanReport::new();
        let mut phases = PhaseTimes::default();
        phases.add(Phase::Propagation, 70);
        r.record_flow("x", &phases, 100, 30);
        assert_eq!(r.conservation_residue("x"), 0, "recorded residue closes");
        r.record_flow("x", &phases, 100, 0);
        assert_eq!(r.conservation_residue("x"), -30, "lost time surfaces");
    }

    #[test]
    fn reservoir_is_bounded_and_merge_is_order_independent() {
        let mut a = SpanReport::new();
        let mut b = SpanReport::new();
        for i in 0..TOP_K_REQUESTS as u64 + 5 {
            a.push_request(sample_span("dctcp", 1, i, 1000 + i));
            b.push_request(sample_span("dctcp", 2, i, 2000 + i));
        }
        assert_eq!(a.spans.len(), TOP_K_REQUESTS);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.spans.len(), TOP_K_REQUESTS);
        // Everything retained comes from b (latencies 2000+ beat 1000+).
        assert!(ab.spans.iter().all(|s| s.seed == 2));
        // Descending latency order.
        for w in ab.spans.windows(2) {
            assert!(w[0].latency_ns >= w[1].latency_ns);
        }
    }

    #[test]
    fn render_shows_phase_percentile_table() {
        let r = sample_report();
        let text = r.render();
        assert!(text.contains("phase"), "{text}");
        assert!(text.contains("rto_stall"), "{text}");
        assert!(text.contains("p999(ns)"), "{text}");
        assert!(text.contains("residue=0"), "{text}");
        assert!(text.contains("SLO violations by dominant phase"), "{text}");
        assert!(text.contains("worst requests"), "{text}");
        assert!(text.contains("scale=k8"), "{text}");
        let text = SpanReport::new().render();
        assert!(text.contains("no span histograms"), "{text}");
    }

    #[test]
    fn perfetto_export_is_wellformed_and_stable() {
        let r = sample_report();
        let p = r.to_perfetto();
        assert!(p.starts_with("{\"displayTimeUnit\":\"ns\""), "{p}");
        assert!(p.contains("\"traceEvents\":["), "{p}");
        assert!(p.contains("\"ph\":\"X\""), "{p}");
        assert!(p.contains("req dctcp/s1/r5"), "{p}");
        assert!(p.contains("\"cat\":\"stall\""), "{p}");
        assert_eq!(p, r.to_perfetto());
        // Balanced braces/brackets (cheap well-formedness proxy; CI runs a
        // real JSON parse over the artifact).
        let open = p.matches('{').count();
        let close = p.matches('}').count();
        assert_eq!(open, close);
        let empty = SpanReport::new().to_perfetto();
        assert!(empty.contains("\"traceEvents\":[]"), "{empty}");
    }

    #[test]
    fn dominant_phase_breaks_ties_deterministically() {
        let mut t = PhaseTimes::default();
        assert_eq!(t.dominant(), Phase::Serialization);
        t.add(Phase::HostWait, 5);
        t.add(Phase::RtoStall, 5);
        assert_eq!(t.dominant(), Phase::HostWait, "earlier ALL entry wins ties");
        t.add(Phase::RtoStall, 1);
        assert_eq!(t.dominant(), Phase::RtoStall);
    }
}
