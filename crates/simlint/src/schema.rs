//! The declared-key model over `ci/metrics_schema.json`.
//!
//! The S-rules cross-check registry keys in two directions: code → schema
//! (S1: an emitted key must be declared) and schema → code (S2: a declared
//! key must still be emitted somewhere). This module flattens the schema
//! document — the root section plus the nested `serve`, `profile`, and
//! `spans` sections — into two lists: *exact* keys (from `required_counters`,
//! `required_gauges`, `required_series` and their `optional_*` twins) and
//! *prefixes* (from the `*_prefixes` arrays). Each entry remembers the
//! schema line it was declared on so drift findings point into the JSON
//! file itself.
//!
//! `optional_*` arrays exist for keys the simulator emits only under some
//! configurations (e.g. per-port gauges): they participate in drift
//! checking exactly like `required_*`, but presence validators must not
//! demand them in every export.

use telemetry::json::{self, Value};

/// One declared key or key prefix.
#[derive(Clone, Debug)]
pub struct DeclaredKey {
    /// The key (exact) or key prefix text.
    pub key: String,
    /// 1-based line in the schema file where it is declared.
    pub line: u32,
    /// Section path for diagnostics: `""` (root), `"serve"`, `"profile"`,
    /// `"spans"`.
    pub section: &'static str,
}

/// The flattened schema.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    /// Exact metric keys.
    pub exact: Vec<DeclaredKey>,
    /// Metric key prefixes (dynamic families like `port_queue_bytes/`).
    pub prefixes: Vec<DeclaredKey>,
}

/// Array fields holding exact keys.
const EXACT_FIELDS: [&str; 6] = [
    "required_counters",
    "required_gauges",
    "required_series",
    "optional_counters",
    "optional_gauges",
    "optional_series",
];

/// Array fields holding key prefixes.
const PREFIX_FIELDS: [&str; 8] = [
    "required_counter_prefixes",
    "required_gauge_prefixes",
    "required_hist_prefixes",
    "required_series_prefixes",
    "optional_counter_prefixes",
    "optional_gauge_prefixes",
    "optional_hist_prefixes",
    "optional_series_prefixes",
];

/// Sub-objects of the root that are schema sections of their own.
const SECTIONS: [&str; 3] = ["serve", "profile", "spans"];

impl Schema {
    /// Parses the schema document text into the flattened key model.
    ///
    /// # Errors
    ///
    /// Returns the JSON parser's message on malformed input, or a
    /// description when the document is not an object.
    pub fn parse(text: &str) -> Result<Schema, String> {
        let doc = json::parse(text)?;
        if !matches!(doc, Value::Obj(_)) {
            return Err("schema root is not a JSON object".to_string());
        }
        let mut s = Schema::default();
        collect_section(&doc, "", &mut s);
        for name in SECTIONS {
            if let Some(sub) = doc.get(name) {
                collect_section(sub, section_tag(name), &mut s);
            }
        }
        Ok(s)
    }

    /// S1 predicate: is an emitted *exact* key declared?
    pub fn allows_exact(&self, key: &str) -> bool {
        self.exact.iter().any(|d| d.key == key)
            || self.prefixes.iter().any(|d| key.starts_with(&d.key))
    }

    /// S1 predicate: is an emitted *prefix* (a literal truncated at its
    /// first `{` interpolation) compatible with some declaration? The
    /// emitted prefix may be shorter than the declared one (the format
    /// string interpolates mid-family, e.g. `event_{kind}/…`) or longer
    /// (it names one member of a declared family), so the test is
    /// bidirectional against prefixes and one-directional against exacts.
    pub fn allows_prefix(&self, prefix: &str) -> bool {
        self.prefixes
            .iter()
            .any(|d| prefix.starts_with(&d.key) || d.key.starts_with(prefix))
            || self.exact.iter().any(|d| d.key.starts_with(prefix))
    }
}

fn section_tag(name: &str) -> &'static str {
    match name {
        "serve" => "serve",
        "profile" => "profile",
        "spans" => "spans",
        _ => "",
    }
}

fn collect_section(obj: &Value, section: &'static str, out: &mut Schema) {
    for (fields, dest_is_prefix) in [(&EXACT_FIELDS[..], false), (&PREFIX_FIELDS[..], true)] {
        for field in fields {
            let Some(arr) = obj.get(field) else { continue };
            for (key, line) in arr.str_items() {
                let d = DeclaredKey {
                    key: key.to_string(),
                    line,
                    section,
                };
                if dest_is_prefix {
                    out.prefixes.push(d);
                } else {
                    out.exact.push(d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "required_counters": ["timeouts", "drops_color"],
        "required_gauges": ["max_queue_bytes"],
        "required_hist_prefixes": ["port_queue_bytes/"],
        "optional_gauge_prefixes": ["port_queue_max/"],
        "serve": {
            "required_counter_prefixes": ["serve_requests/"],
            "required_hist_prefixes": ["serve_req_latency_ns/"]
        },
        "profile": {
            "required_series": ["events"]
        },
        "spans": {
            "required_hist_prefixes": ["span_phase_ns/"]
        }
    }"#;

    #[test]
    fn flattens_all_sections_with_lines() {
        let s = Schema::parse(DOC).unwrap();
        let exacts: Vec<&str> = s.exact.iter().map(|d| d.key.as_str()).collect();
        assert_eq!(
            exacts,
            ["timeouts", "drops_color", "max_queue_bytes", "events"]
        );
        assert_eq!(s.exact[0].line, 2);
        assert_eq!(s.exact[3].section, "profile");
        let prefixes: Vec<&str> = s.prefixes.iter().map(|d| d.key.as_str()).collect();
        assert!(prefixes.contains(&"serve_requests/"));
        assert!(prefixes.contains(&"port_queue_max/"));
        let spans = s
            .prefixes
            .iter()
            .find(|d| d.key == "span_phase_ns/")
            .unwrap();
        assert_eq!(spans.section, "spans");
    }

    #[test]
    fn s1_predicates() {
        let s = Schema::parse(DOC).unwrap();
        assert!(s.allows_exact("timeouts"));
        assert!(
            s.allows_exact("port_queue_bytes/n0/p1"),
            "prefix families cover members"
        );
        assert!(!s.allows_exact("timeoutz"));
        assert!(s.allows_prefix("serve_requests/"));
        assert!(
            s.allows_prefix("serve_requests/tlt/"),
            "longer than declared: one member"
        );
        assert!(
            s.allows_prefix("port_queue_"),
            "shorter than declared: mid-family interpolation"
        );
        assert!(s.allows_prefix("timeout"), "prefix of an exact key");
        assert!(!s.allows_prefix("rto_cause_"));
    }

    #[test]
    fn malformed_schema_is_an_error() {
        assert!(Schema::parse("[1,2]").is_err());
        assert!(Schema::parse("{\"x\": }").is_err());
    }
}
