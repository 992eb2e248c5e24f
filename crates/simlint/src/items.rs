//! Per-file item extraction: the nodes of the workspace item graph.
//!
//! The lexer gives a flat token stream; this module raises it to the item
//! skeletons the cross-file rules need — registry-key emission sites and
//! metric-shaped string literals. The cross-file passes in
//! [`crate::graph`] run over the [`FileItems`] of every file.

use crate::lexer::{str_contents, Tok, TokKind};

/// Registry methods whose first string argument is a metric key.
const EMIT_METHODS: [&str; 4] = ["inc", "observe", "gauge_max", "merge_hist"];

/// A registry-key emission site (`.inc("key", …)` and friends).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EmittedKey {
    /// The key (exact), or the literal's prefix up to its first `{`
    /// interpolation when `prefix` is set.
    pub key: String,
    /// Whether `key` is a truncated format-string prefix.
    pub prefix: bool,
    /// 1-based line of the emitting call.
    pub line: u32,
}

/// Everything the cross-file rules need to know about one file.
#[derive(Clone, Debug, Default)]
pub struct FileItems {
    /// Registry-key emission sites outside test regions.
    pub emits: Vec<EmittedKey>,
    /// Metric-shaped string literals outside test regions (sorted,
    /// deduplicated) — the S2 liveness evidence.
    pub literals: Vec<String>,
}

/// Whether a string literal looks like a metric key (or a format string
/// producing one): lowercase words joined by `_`/`/`, possibly with `{…}`
/// interpolations. Used as S2 liveness evidence, so it only needs to be a
/// superset of real keys — odd short words are harmless.
fn metric_shaped(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes().all(|b| {
            b.is_ascii_lowercase() || b.is_ascii_digit() || matches!(b, b'_' | b'/' | b'{' | b'}')
        })
        && s.bytes().any(|b| b.is_ascii_lowercase())
}

fn in_region(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| (a..=b).contains(&line))
}

/// Extracts the item skeleton of one lexed file. `test_regions` are the
/// line ranges of `#[cfg(test)]` modules (or `(0, u32::MAX)` for files that
/// are test-only by location).
pub fn extract(t: &[Tok], test_regions: &[(u32, u32)]) -> FileItems {
    let mut out = FileItems::default();
    let mut literals = std::collections::BTreeSet::new();

    let punct = |i: usize, s: &str| {
        t.get(i)
            .is_some_and(|k| k.kind == TokKind::Punct && k.text == s)
    };

    for (i, tok) in t.iter().enumerate() {
        match tok.kind {
            TokKind::Str => {
                let c = str_contents(&tok.text);
                if !in_region(test_regions, tok.line) && metric_shaped(c) {
                    literals.insert(c.to_string());
                }
            }
            // Emission site: `.inc(…)` etc., first string inside the
            // balanced argument list.
            TokKind::Ident
                if EMIT_METHODS.contains(&tok.text.as_str())
                    && i > 0
                    && punct(i - 1, ".")
                    && punct(i + 1, "(")
                    && !in_region(test_regions, tok.line) =>
            {
                if let Some(em) = first_key_in_args(t, i + 2, tok.line) {
                    out.emits.push(em);
                }
            }
            _ => {}
        }
    }

    out.literals = literals.into_iter().collect();
    out
}

/// The first string literal inside the balanced argument list starting at
/// token index `open + 1` (where `open` indexes `(`)… reduced to an emitted
/// key: a literal with a `{` interpolation is truncated to its prefix; an
/// empty prefix (the format starts with an interpolation, e.g.
/// `"{}{scheme}"`) is unresolvable and skipped.
fn first_key_in_args(t: &[Tok], mut j: usize, line: u32) -> Option<EmittedKey> {
    let mut depth = 1usize;
    while j < t.len() && depth > 0 {
        match t[j].kind {
            TokKind::Punct => match t[j].text.as_str() {
                "(" => depth += 1,
                ")" => depth -= 1,
                _ => {}
            },
            TokKind::Str => {
                let c = str_contents(&t[j].text);
                return match c.find('{') {
                    None => Some(EmittedKey {
                        key: c.to_string(),
                        prefix: false,
                        line,
                    }),
                    Some(0) => None,
                    Some(at) => Some(EmittedKey {
                        key: c[..at].to_string(),
                        prefix: true,
                        line,
                    }),
                };
            }
            _ => {}
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn extracts_emits_and_literals_outside_tests() {
        let src = r#"
fn seal(r: &mut Registry) {
    r.inc("timeouts", 1);
    r.inc(&format!("rto_cause_{}", c.as_str()), n);
    r.observe(&name, v); // no literal: skipped
    r.inc(&format!("{}{scheme}", PREFIX), 1); // leading interpolation: skipped
}
#[cfg(test)]
mod tests {
    fn t(r: &mut Registry) { r.inc("test_only_key", 1); }
}
"#;
        let l = lex(src);
        let regions = vec![(9u32, 12u32)];
        let items = extract(&l, &regions);
        assert_eq!(items.emits.len(), 2);
        assert_eq!(items.emits[0].key, "timeouts");
        assert!(!items.emits[0].prefix);
        assert_eq!(items.emits[1].key, "rto_cause_");
        assert!(items.emits[1].prefix);
        assert!(items.literals.contains(&"timeouts".to_string()));
        assert!(items.literals.contains(&"rto_cause_{}".to_string()));
        assert!(!items.literals.contains(&"test_only_key".to_string()));
    }

    #[test]
    fn metric_shape_filter() {
        assert!(metric_shaped("drops_color"));
        assert!(metric_shaped("port_queue_bytes/n{n}/p{p}"));
        assert!(metric_shaped("events"));
        assert!(!metric_shaped("a schedule site bypassed the profiler"));
        assert!(!metric_shaped("Color"));
        assert!(!metric_shaped(""));
        // Leading-interpolation format strings are shaped (they hold real
        // key text); the emit extractor skips them, not this filter.
        assert!(metric_shaped("{}{scheme}"));
    }
}
