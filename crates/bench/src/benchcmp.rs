//! Cross-run performance comparison: diffs two measurement artifacts.
//!
//! `benchcmp` reads two JSON files of the *same* schema —
//! `tlt-bench-baseline/v1` (wall-clock suite reports), `tlt-profile/v1`
//! (engine profiles), `tlt-metrics/v1` (metrics registries), or
//! `tlt-serve/v1` (per-request SLO reports) — flattens
//! each into a key → number map, and reports per-key deltas:
//!
//! * **lower-is-better** keys (anything containing `wall_ms`) and
//!   **higher-is-better** keys (`events_per_sec`, `speedup`) are graded
//!   against a regression threshold,
//! * everything else (event counts, queue depths, ...) is informational —
//!   a count change is a behavior diff to investigate, not a perf verdict.
//!
//! Provenance metadata guards against apples-to-oranges comparisons: a
//! `scale`, `build_profile`, or `seeds` value present in *both* files but
//! different is a refusal (exit 2 unless `--force`); a value missing from
//! one side (older artifacts predate the stamps) only warns, and differing
//! `cores` warns because wall-clock numbers from different hosts are
//! suggestive at best.
//!
//! The comparison itself never exits non-zero on a regression — CI runs it
//! informationally — unless `--fail-on-regression` turns the grade into a
//! gate.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A minimal JSON value, parsed by [`Value::parse`]. The repo is std-only,
/// so `benchcmp` carries its own reader; unlike the registry parser this
/// one accepts *any* well-formed document (floats, nesting, arrays) since
/// the bench-baseline schema carries fractional milliseconds.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Json {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.i < p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Json<'a> {
    b: &'a [u8],
    i: usize,
}

impl Json<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn fail(&self, what: &str) -> String {
        if self.i >= self.b.len() {
            format!("{what} (unexpected end of input)")
        } else {
            format!("{what} at byte {}", self.i)
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.fail("unrecognized literal"))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.fail("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(self.fail("expected a string"));
        }
        self.i += 1;
        let mut s = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'u') => {
                            // \uXXXX — decoded losslessly for the BMP,
                            // which is all the harness ever emits.
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.fail("malformed \\u escape"))?;
                            s.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        _ => return Err(self.fail("unsupported escape")),
                    }
                    self.i += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 passes through byte-wise.
                    let len = match c {
                        _ if c < 0x80 => 1,
                        _ if c >> 5 == 0b110 => 2,
                        _ if c >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .b
                        .get(self.i..self.i + len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| self.fail("invalid UTF-8"))?;
                    s.push_str(chunk);
                    self.i += len;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.i += 1; // '{'
        let mut m = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Value::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            if self.b.get(self.i) != Some(&b':') {
                return Err(self.fail("expected ':'"));
            }
            self.i += 1;
            m.push((k, self.value()?));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(m));
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.i += 1; // '['
        let mut a = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Value::Arr(a));
        }
        loop {
            a.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(a));
                }
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }
}

/// One artifact flattened for comparison.
#[derive(Debug)]
pub struct Doc {
    /// The schema tag (`tlt-bench-baseline/v1`, `tlt-profile/v1`, ...).
    pub schema: String,
    /// Provenance strings (`scale`, `build_profile`, `cores`, ...).
    pub meta: BTreeMap<String, String>,
    /// Every comparable number, keyed hierarchically
    /// (`workload/incast_micro/wall_ms_jobs1`, `counter/event_exec/deliver`).
    pub nums: BTreeMap<String, f64>,
}

/// Parses and flattens one artifact.
pub fn load(text: &str) -> Result<Doc, String> {
    let v = Value::parse(text)?;
    let schema = v
        .get("schema")
        .and_then(Value::str)
        .ok_or("missing \"schema\" key")?
        .to_string();
    let mut doc = Doc {
        schema: schema.clone(),
        meta: BTreeMap::new(),
        nums: BTreeMap::new(),
    };
    match schema.as_str() {
        "tlt-bench-baseline/v1" => flatten_bench(&v, &mut doc),
        // `tlt-spans/v1` embeds a registry body (phase hists + span counters)
        // next to its span-tree array; the registry part flattens like any
        // other export and the trees are ignored — spans keys are
        // informational, never graded (see `direction`).
        "tlt-profile/v1" | "tlt-metrics/v1" | "tlt-serve/v1" | "tlt-spans/v1" => {
            flatten_registry(&v, &mut doc)
        }
        other => return Err(format!("unsupported schema {other:?}")),
    }
    Ok(doc)
}

fn flatten_bench(v: &Value, doc: &mut Doc) {
    for key in ["scale", "build_profile", "generated_by"] {
        if let Some(s) = v.get(key).and_then(Value::str) {
            doc.meta.insert(key.to_string(), s.to_string());
        }
    }
    for key in ["cores", "jobs", "seeds"] {
        if let Some(n) = v.get(key).and_then(Value::num) {
            doc.meta.insert(key.to_string(), trim_num(n));
            doc.nums.insert(key.to_string(), n);
        }
    }
    if let Some(Value::Arr(ws)) = v.get("workloads") {
        for w in ws {
            let Some(name) = w.get("name").and_then(Value::str) else {
                continue;
            };
            if let Value::Obj(fields) = w {
                for (k, fv) in fields {
                    if let Some(n) = fv.num() {
                        doc.nums.insert(format!("workload/{name}/{k}"), n);
                    }
                }
            }
        }
    }
    if let Some(Value::Obj(fields)) = v.get("total") {
        for (k, fv) in fields {
            if let Some(n) = fv.num() {
                doc.nums.insert(format!("total/{k}"), n);
            }
        }
    }
}

fn flatten_registry(v: &Value, doc: &mut Doc) {
    if let Some(Value::Obj(m)) = v.get("meta") {
        for (k, mv) in m {
            if let Some(s) = mv.str() {
                doc.meta.insert(k.clone(), s.to_string());
            }
        }
    }
    for (section, prefix) in [("counters", "counter"), ("gauges", "gauge")] {
        if let Some(Value::Obj(m)) = v.get(section) {
            for (k, mv) in m {
                if let Some(n) = mv.num() {
                    doc.nums.insert(format!("{prefix}/{k}"), n);
                }
            }
        }
    }
    if let Some(Value::Obj(hists)) = v.get("hists") {
        for (k, h) in hists {
            for field in ["count", "sum", "max"] {
                if let Some(n) = h.get(field).and_then(Value::num) {
                    doc.nums.insert(format!("hist/{k}/{field}"), n);
                }
            }
        }
    }
    if let Some(Value::Obj(series)) = v.get("series") {
        for (k, ts) in series {
            let (mut sum, mut count) = (0.0f64, 0.0f64);
            if let Some(Value::Arr(buckets)) = ts.get("buckets") {
                for b in buckets {
                    if let Value::Arr(cols) = b {
                        // [index, sum, count, max]
                        sum += cols.get(1).and_then(Value::num).unwrap_or(0.0);
                        count += cols.get(2).and_then(Value::num).unwrap_or(0.0);
                    }
                }
            }
            doc.nums.insert(format!("series/{k}/sum"), sum);
            doc.nums.insert(format!("series/{k}/count"), count);
        }
    }
}

fn trim_num(n: f64) -> String {
    if n.fract() == 0.0 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// How a key's delta is graded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Wall time: an increase is a regression.
    LowerIsBetter,
    /// Throughput: a decrease is a regression.
    HigherIsBetter,
    /// Counts and sizes: reported, never graded.
    Informational,
}

/// Grades a flattened key by name.
pub fn direction(key: &str) -> Direction {
    if key.contains("wall_ms") {
        Direction::LowerIsBetter
    } else if key.contains("events_per_sec") || key.ends_with("/speedup") {
        Direction::HigherIsBetter
    } else {
        Direction::Informational
    }
}

/// One key's before/after pair.
#[derive(Debug)]
pub struct Delta {
    /// Flattened key.
    pub key: String,
    /// Value in the old artifact.
    pub old: f64,
    /// Value in the new artifact.
    pub new: f64,
    /// Percent change relative to `old` (`None` when `old == 0`).
    pub pct: Option<f64>,
    /// Grading class.
    pub dir: Direction,
    /// Whether this delta crossed the threshold in the bad direction.
    pub regression: bool,
}

/// The full comparison of two artifacts.
#[derive(Debug)]
pub struct Comparison {
    /// Per-key deltas for keys present in both files, document order.
    pub deltas: Vec<Delta>,
    /// Keys only the old file has (removed measurements).
    pub only_old: Vec<String>,
    /// Keys only the new file has (added measurements).
    pub only_new: Vec<String>,
    /// Non-fatal provenance notes.
    pub warnings: Vec<String>,
    /// A fatal provenance mismatch; comparing anyway needs `--force`.
    pub refusal: Option<String>,
    /// The regression threshold used (percent).
    pub threshold_pct: f64,
}

impl Comparison {
    /// Graded keys that crossed the threshold in the bad direction.
    pub fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(|d| d.regression)
    }

    /// Graded keys that moved past the threshold in the *good* direction.
    pub fn improvements(&self) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(|d| {
            !d.regression
                && d.dir != Direction::Informational
                && d.pct.is_some_and(|p| p.abs() >= self.threshold_pct)
        })
    }

    /// Renders the human-readable delta table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for w in &self.warnings {
            let _ = writeln!(s, "warning: {w}");
        }
        let _ = writeln!(
            s,
            "{:<52}{:>14}{:>14}{:>9}  grade",
            "key", "old", "new", "delta"
        );
        for d in &self.deltas {
            // Informational keys only earn a row when they changed; graded
            // keys always print so the table shape is stable.
            if d.dir == Direction::Informational && d.old == d.new {
                continue;
            }
            let pct = match d.pct {
                Some(p) => format!("{p:+.1}%"),
                None => "n/a".to_string(),
            };
            let grade = match (d.dir, d.regression) {
                (Direction::Informational, _) => "info",
                (_, true) => "REGRESSION",
                (_, false) => "ok",
            };
            let _ = writeln!(
                s,
                "{:<52}{:>14.3}{:>14.3}{:>9}  {}",
                d.key, d.old, d.new, pct, grade
            );
        }
        if !self.only_old.is_empty() {
            let _ = writeln!(s, "only in old: {}", self.only_old.join(", "));
        }
        if !self.only_new.is_empty() {
            let _ = writeln!(s, "only in new: {}", self.only_new.join(", "));
        }
        let regs = self.regressions().count();
        let imps = self.improvements().count();
        let _ = writeln!(
            s,
            "{} keys compared, {} regression(s), {} improvement(s) beyond ±{}%",
            self.deltas.len(),
            regs,
            imps,
            self.threshold_pct
        );
        s
    }

    /// Machine-readable summary (`--json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"tlt-benchcmp/v1\",\n");
        let _ = writeln!(s, "  \"threshold_pct\": {},", self.threshold_pct);
        let _ = writeln!(s, "  \"regressions\": {},", self.regressions().count());
        let _ = writeln!(s, "  \"improvements\": {},", self.improvements().count());
        s.push_str("  \"deltas\": [\n");
        for (i, d) in self.deltas.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"key\": \"{}\", \"old\": {}, \"new\": {}, \"pct\": {}, \
                 \"regression\": {}}}",
                d.key,
                d.old,
                d.new,
                d.pct.map_or("null".to_string(), |p| format!("{p:.4}")),
                d.regression
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
const STRICT_META: [&str; 4] = ["scale", "build_profile", "seeds", "schema"];

/// Compares two flattened artifacts. `threshold_pct` grades directional
/// keys; provenance mismatches populate `refusal`/`warnings` (the caller
/// decides whether `--force` overrides a refusal).
pub fn compare(old: &Doc, new: &Doc, threshold_pct: f64) -> Comparison {
    let mut warnings = Vec::new();
    let mut refusals = Vec::new();
    if old.schema != new.schema {
        refusals.push(format!(
            "schema mismatch: old is {:?}, new is {:?}",
            old.schema, new.schema
        ));
    }
    for key in STRICT_META {
        if key == "schema" {
            continue;
        }
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
    if let (Some(a), Some(b)) = (old.meta.get("cores"), new.meta.get("cores")) {
        if a != b {
            warnings.push(format!(
                "cores differ (old {a}, new {b}); wall-clock deltas are host-dependent"
            ));
        }
    }

    let mut deltas = Vec::new();
    let mut only_old = Vec::new();
    let mut only_new: Vec<String> = new
        .nums
        .keys()
        .filter(|k| !old.nums.contains_key(*k))
        .cloned()
        .collect();
    only_new.sort();
    for (key, &o) in &old.nums {
        let Some(&n) = new.nums.get(key) else {
            only_old.push(key.clone());
            continue;
        };
        let dir = direction(key);
        let pct = (o != 0.0).then(|| (n - o) / o * 100.0);
        let regression = match (dir, pct) {
            (Direction::LowerIsBetter, Some(p)) => p > threshold_pct,
            (Direction::HigherIsBetter, Some(p)) => p < -threshold_pct,
            _ => false,
        };
        deltas.push(Delta {
            key: key.clone(),
            old: o,
            new: n,
            pct,
            dir,
            regression,
        });
    }
    Comparison {
        deltas,
        only_old,
        only_new,
        warnings,
        refusal: if refusals.is_empty() {
            None
        } else {
            Some(refusals.join("; "))
        },
        threshold_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report as the committed `BENCH_pr*.json` files hold it, retired
    /// `"simprof"` key included: keys nothing reads are ignored.
    fn bench_json(wall: f64, build: Option<&str>, scale: &str) -> String {
        let build_line = build
            .map(|b| format!("  \"build_profile\": \"{b}\",\n"))
            .unwrap_or_default();
        format!(
            "{{\n  \"schema\": \"tlt-bench-baseline/v1\",\n  \"generated_by\": \"bench_baseline\",\n\
             \x20 \"cores\": 8,\n  \"jobs\": 8,\n  \"scale\": \"{scale}\",\n  \"seeds\": 3,\n{build_line}\
             \x20 \"workloads\": [\n    {{\"name\": \"incast_micro\", \"schemes\": 4, \"jobs_run\": 4, \
             \"wall_ms_jobs1\": {wall:.3}, \"wall_ms_jobsn\": {:.3}, \"speedup\": 2.000, \
             \"events_scheduled\": 1000, \"events_per_sec_jobs1\": 100, \"events_per_sec_jobsn\": 200, \
             \"deterministic\": true}}\n  ],\n  \"simprof\": false,\n\
             \x20 \"total\": {{\"wall_ms_jobs1\": {wall:.3}, \"wall_ms_jobsn\": {:.3}, \
             \"speedup\": 2.000, \"deterministic\": true}}\n}}\n",
            wall / 2.0,
            wall / 2.0,
        )
    }

    #[test]
    fn parses_and_flattens_bench_baseline() {
        let doc = load(&bench_json(100.0, Some("release"), "quick")).unwrap();
        assert_eq!(doc.schema, "tlt-bench-baseline/v1");
        assert_eq!(doc.meta.get("scale").map(String::as_str), Some("quick"));
        assert_eq!(doc.nums["workload/incast_micro/wall_ms_jobs1"], 100.0);
        assert_eq!(doc.nums["total/speedup"], 2.0);
    }

    #[test]
    fn parses_and_flattens_profile() {
        let mut p = telemetry::Profile::new();
        p.reg.inc("event_exec/deliver", 42);
        p.reg.gauge_max("queue_peak_depth", 7);
        p.reg.observe("queue_depth", 3);
        p.reg.set_meta("scale", "quick");
        p.series_mut("events").record(eventsim::SimTime::ZERO, 5);
        let doc = load(&p.to_json()).unwrap();
        assert_eq!(doc.schema, "tlt-profile/v1");
        assert_eq!(doc.nums["counter/event_exec/deliver"], 42.0);
        assert_eq!(doc.nums["gauge/queue_peak_depth"], 7.0);
        assert_eq!(doc.nums["hist/queue_depth/count"], 1.0);
        assert_eq!(doc.nums["series/events/sum"], 5.0);
        assert_eq!(doc.meta.get("scale").map(String::as_str), Some("quick"));
    }

    #[test]
    fn parses_and_flattens_serve_report() {
        let mut r = telemetry::ServeReport::new();
        r.reg.inc("serve_requests/dctcp", 200);
        r.reg.inc("serve_slo_viol_timeout/dctcp", 3);
        r.reg.observe("serve_req_latency_ns/dctcp", 800_000);
        r.reg.set_meta("scale", "k8");
        let doc = load(&r.to_json()).unwrap();
        assert_eq!(doc.schema, "tlt-serve/v1");
        assert_eq!(doc.nums["counter/serve_requests/dctcp"], 200.0);
        assert_eq!(doc.nums["counter/serve_slo_viol_timeout/dctcp"], 3.0);
        assert_eq!(doc.nums["hist/serve_req_latency_ns/dctcp/count"], 1.0);
        assert_eq!(doc.meta.get("scale").map(String::as_str), Some("k8"));
    }

    #[test]
    fn parses_and_flattens_spans_report_as_informational() {
        let mut rep = telemetry::SpanReport::new();
        let mut phases = telemetry::PhaseTimes::default();
        phases.add(telemetry::Phase::Serialization, 64_000);
        phases.add(telemetry::Phase::RtoStall, 4_000_000);
        rep.record_flow("dctcp+tlt", &phases, phases.total(), 0);
        rep.record_violation("dctcp+tlt", telemetry::Phase::RtoStall);
        rep.reg.set_meta("scale", "k8");
        let doc = load(&rep.to_json()).unwrap();
        assert_eq!(doc.schema, "tlt-spans/v1");
        assert_eq!(doc.nums["counter/span_flows/dctcp+tlt"], 1.0);
        assert_eq!(
            doc.nums["hist/span_phase_ns/dctcp+tlt/rto_stall/sum"],
            4_000_000.0
        );
        assert_eq!(doc.nums["hist/span_fct_ns/dctcp+tlt/count"], 1.0);
        assert_eq!(
            doc.nums["counter/serve_viol_phase/dctcp+tlt/rto_stall"],
            1.0
        );
        assert_eq!(doc.meta.get("scale").map(String::as_str), Some("k8"));
        // Spans keys are reported, never graded: a 10x phase-time shift in
        // the new report must not trip --fail-on-regression.
        let mut worse = telemetry::SpanReport::new();
        let mut slow = telemetry::PhaseTimes::default();
        slow.add(telemetry::Phase::Serialization, 640_000);
        slow.add(telemetry::Phase::RtoStall, 40_000_000);
        worse.record_flow("dctcp+tlt", &slow, slow.total(), 0);
        worse.record_violation("dctcp+tlt", telemetry::Phase::RtoStall);
        worse.reg.set_meta("scale", "k8");
        let cmp = compare(&doc, &load(&worse.to_json()).unwrap(), 10.0);
        assert!(cmp.refusal.is_none());
        assert_eq!(cmp.regressions().count(), 0, "spans keys are informational");
    }

    #[test]
    fn grades_wall_regressions_and_throughput_gains() {
        let old = load(&bench_json(100.0, Some("release"), "quick")).unwrap();
        let new = load(&bench_json(150.0, Some("release"), "quick")).unwrap();
        let cmp = compare(&old, &new, 10.0);
        assert!(cmp.refusal.is_none());
        let wall = cmp
            .deltas
            .iter()
            .find(|d| d.key == "workload/incast_micro/wall_ms_jobs1")
            .unwrap();
        assert_eq!(wall.dir, Direction::LowerIsBetter);
        assert!(wall.regression, "+50% wall beyond a 10% threshold");
        assert!(cmp.regressions().count() >= 1);
        // Identical files: clean.
        let same = compare(&old, &old, 10.0);
        assert_eq!(same.regressions().count(), 0);
        assert!(same.render().contains("0 regression(s)"));
    }

    #[test]
    fn provenance_mismatch_refuses_and_missing_only_warns() {
        let release = load(&bench_json(100.0, Some("release"), "quick")).unwrap();
        let debug = load(&bench_json(100.0, Some("debug"), "quick")).unwrap();
        let cmp = compare(&release, &debug, 5.0);
        assert!(cmp.refusal.as_deref().unwrap().contains("build_profile"));

        // PR-2-era files predate the build_profile stamp: warn, don't refuse.
        let unstamped = load(&bench_json(100.0, None, "quick")).unwrap();
        let cmp = compare(&unstamped, &release, 5.0);
        assert!(cmp.refusal.is_none());
        assert!(cmp.warnings.iter().any(|w| w.contains("build_profile")));

        let full = load(&bench_json(100.0, Some("release"), "full")).unwrap();
        let cmp = compare(&release, &full, 5.0);
        assert!(cmp.refusal.as_deref().unwrap().contains("scale"));
    }

    #[test]
    fn rejects_malformed_and_unknown_documents() {
        assert!(load("").is_err());
        assert!(load("{").is_err());
        assert!(load("{\"schema\": \"wat/v9\"}")
            .unwrap_err()
            .contains("wat"));
        assert!(load("{\"cores\": 4}").unwrap_err().contains("schema"));
        let good = bench_json(100.0, Some("release"), "quick");
        assert!(load(&format!("{good}garbage"))
            .unwrap_err()
            .contains("trailing"));
        // Every truncation of a valid document fails cleanly, never panics.
        for cut in 0..good.len() {
            let _ = load(&good[..cut]);
        }
    }

    #[test]
    fn json_value_parser_handles_escapes_and_nesting() {
        let v = Value::parse(r#"{"a": [1, -2.5, 1e3], "b": "x\n\"yA", "c": null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Value::Arr(vec![Value::Num(1.0), Value::Num(-2.5), Value::Num(1000.0)])
        );
        assert_eq!(v.get("b").and_then(Value::str), Some("x\n\"yA"));
        assert_eq!(v.get("c"), Some(&Value::Null));
    }
}
