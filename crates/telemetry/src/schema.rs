//! The declared-key model over `ci/metrics_schema.json`, the one reader of
//! that file.
//!
//! [`Artifact::validate`](crate::Artifact::validate) reads it twice: every
//! counter, gauge, histogram and series name an export carries must be
//! declared ([`Schema::allows_exact`]), and the export must carry the
//! `required_meta` of each section it belongs to. The converse, that every
//! declared key is emitted, is the root package's
//! `tests/schema_coverage.rs`. This module flattens the schema document —
//! the root section plus the nested `serve`, `profile`, and `spans`
//! sections — into three lists: *exact* keys (from `required_counters`,
//! `required_gauges`, `required_series` and their `optional_*` twins),
//! *prefixes* (from the `*_prefixes` arrays) and *meta* keys (from
//! `required_meta`).
//!
//! `optional_*` arrays exist for keys the simulator emits only under some
//! configurations (e.g. per-port gauges): an export may carry them, but
//! none must.

use crate::json::{self, Value};

/// One declared key or key prefix.
#[derive(Clone, Debug)]
pub struct DeclaredKey {
    /// The key (exact) or key prefix text.
    pub key: String,
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
    /// Provenance keys every export of the section must carry in `meta`.
    pub(crate) meta: Vec<DeclaredKey>,
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
    /// `ci/metrics_schema.json`, compiled in: the schema every export is
    /// validated against ([`Artifact::validate`](crate::Artifact::validate)).
    pub fn builtin() -> Schema {
        Schema::parse(include_str!("../../../ci/metrics_schema.json"))
            .expect("ci/metrics_schema.json parses (validate's tests read it)")
    }

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
                collect_section(sub, name, &mut s);
            }
        }
        Ok(s)
    }

    /// Whether an emitted key is declared: exactly, or under a declared
    /// prefix.
    pub fn allows_exact(&self, key: &str) -> bool {
        self.exact.iter().any(|d| d.key == key)
            || self.prefixes.iter().any(|d| key.starts_with(&d.key))
    }
}

fn collect_section(obj: &Value, section: &'static str, out: &mut Schema) {
    for (fields, dest) in [
        (&EXACT_FIELDS[..], &mut out.exact),
        (&PREFIX_FIELDS[..], &mut out.prefixes),
        (&["required_meta"][..], &mut out.meta),
    ] {
        for field in fields {
            let Some(arr) = obj.get(field) else { continue };
            for key in arr.str_items() {
                let key = key.to_string();
                dest.push(DeclaredKey { key, section });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "required_meta": ["jobs", "scale"],
        "required_counters": ["timeouts", "drops_color"],
        "required_gauges": ["max_queue_bytes"],
        "required_hist_prefixes": ["port_queue_bytes/"],
        "optional_gauge_prefixes": ["port_queue_max/"],
        "serve": {
            "required_meta": ["slo_ns"],
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
    fn flattens_all_sections() {
        let s = Schema::parse(DOC).unwrap();
        let exacts: Vec<&str> = s.exact.iter().map(|d| d.key.as_str()).collect();
        assert_eq!(
            exacts,
            ["timeouts", "drops_color", "max_queue_bytes", "events"]
        );
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
        let meta: Vec<(&str, &str)> = s.meta.iter().map(|d| (d.section, d.key.as_str())).collect();
        assert_eq!(meta, [("", "jobs"), ("", "scale"), ("serve", "slo_ns")]);
    }

    #[test]
    fn declared_keys_and_prefix_members_are_allowed() {
        let s = Schema::parse(DOC).unwrap();
        assert!(s.allows_exact("timeouts"));
        assert!(
            s.allows_exact("port_queue_bytes/n0/p1"),
            "prefix families cover members"
        );
        assert!(!s.allows_exact("timeoutz"));
        assert!(!s.allows_exact("port_queue_bytes"), "a prefix is no key");
    }

    #[test]
    fn malformed_schema_is_an_error() {
        assert!(Schema::parse("[1,2]").is_err());
        assert!(Schema::parse("{\"x\": }").is_err());
    }
}
