//! Cross-file rules over the workspace item graph.
//!
//! [`run`] consumes the per-file [`FileItems`] summaries plus the declared
//! key model from `ci/metrics_schema.json` and produces the S rule
//! family:
//!
//! | rule | what it checks                                           |
//! |------|----------------------------------------------------------|
//! | S1   | emitted registry keys are declared                       |
//! | S2   | declared keys still have an emission site                |
//!
//! A tag's render arm and its `ALL` entry need no rule: `as_str` is a match
//! with no wildcard, and `all_variants!` proves `ALL` whole and in order at
//! compile time. The per-variant schema counters (`drops_*`, `rto_cause_*`,
//! `span_phase_ns/*`) are a `telemetry` unit test, and every `FaultKind`
//! having a producer is a `dcsim` one.
//!
//! S1 reports at the emitting call; S2 at the declaration line inside the
//! schema JSON itself. Both are skipped when there is no schema, so fixture
//! tests can target one rule at a time.

use crate::items::FileItems;
use crate::rules::{crate_of, in_s1_scope, Finding};
use telemetry::schema::{DeclaredKey, Schema};

/// Repo-relative schema path S2 findings point into.
pub const SCHEMA_PATH: &str = "ci/metrics_schema.json";

/// Runs every cross-file rule.
pub fn run(files: &[(String, FileItems)], schema: Option<&Schema>) -> Vec<Finding> {
    let mut out = Vec::new();
    if let Some(schema) = schema {
        s1(files, schema, &mut out);
        s2(files, schema, &mut out);
    }
    out
}

/// S1: every emitted registry key must be declared.
fn s1(files: &[(String, FileItems)], schema: &Schema, out: &mut Vec<Finding>) {
    for (rel, items) in files {
        if !in_s1_scope(rel) {
            continue;
        }
        for em in &items.emits {
            let ok = if em.prefix {
                schema.allows_prefix(&em.key)
            } else {
                schema.allows_exact(&em.key)
            };
            if !ok {
                let shape = if em.prefix {
                    format!("key family \"{}…\"", em.key)
                } else {
                    format!("key \"{}\"", em.key)
                };
                out.push(Finding {
                    file: rel.clone(),
                    line: em.line,
                    rule: "S1",
                    msg: format!(
                        "registry {shape} is emitted here but not declared in {SCHEMA_PATH}: \
                         schema-checked consumers will never see it"
                    ),
                });
            }
        }
    }
}

/// S2: every declared key must still have an emission site. Liveness
/// evidence is the metric-shaped literal pool of the whole workspace minus
/// the linter itself (whose rule tables would otherwise mask dead keys).
fn s2(files: &[(String, FileItems)], schema: &Schema, out: &mut Vec<Finding>) {
    let pool: Vec<&str> = files
        .iter()
        .filter(|(rel, _)| crate_of(rel) != Some("simlint"))
        .flat_map(|(_, items)| items.literals.iter())
        .map(String::as_str)
        .collect();
    // A literal with an interpolation pins everything its prefix covers.
    let truncated: Vec<&str> = pool
        .iter()
        .filter_map(|l| l.find('{').map(|at| &l[..at]))
        .filter(|t| !t.is_empty())
        .collect();

    for d in &schema.exact {
        let live =
            pool.iter().any(|l| *l == d.key) || truncated.iter().any(|t| d.key.starts_with(t));
        if !live {
            out.push(dead(d, "key"));
        }
    }
    for d in &schema.prefixes {
        let live = pool.iter().any(|l| l.starts_with(&d.key))
            || truncated
                .iter()
                .any(|t| t.starts_with(&d.key) || d.key.starts_with(t));
        if !live {
            out.push(dead(d, "key prefix"));
        }
    }
}

fn dead(d: &DeclaredKey, what: &str) -> Finding {
    let section = if d.section.is_empty() {
        String::new()
    } else {
        format!(" ({} section)", d.section)
    };
    Finding {
        file: SCHEMA_PATH.to_string(),
        line: d.line,
        rule: "S2",
        msg: format!(
            "declared {what} \"{}\"{section} has no emission site anywhere in the workspace: \
             the schema is ahead of (or behind) the code",
            d.key
        ),
    }
}
