//! Cross-file rules over the workspace item graph.
//!
//! [`run`] consumes the per-file [`FileItems`] summaries plus the declared
//! key model from `ci/metrics_schema.json` and produces the E/S rule
//! families:
//!
//! | rule | pragma           | what it checks                                 |
//! |------|------------------|------------------------------------------------|
//! | E1   | `accounting`     | every audited-enum variant is in its enum's    |
//! |      |                  | `ALL` table (which `parse` and per-variant     |
//! |      |                  | counters iterate) and has the accounting site  |
//! |      |                  | its [`AccountingMode`] names                   |
//! | S1   | `undeclared-key` | emitted registry keys are declared             |
//! | S2   | —                | declared keys still have an emission site      |
//!
//! A tag's render arm needs no rule: `as_str` is a match with no wildcard,
//! so the compiler proves every variant has a tag, and `parse` is derived
//! from `ALL`. The per-variant schema counters (`drops_*`, `rto_cause_*`,
//! `span_phase_ns/*`) are a `telemetry` unit test.
//!
//! E1 reports at the variant's declaration line in the defining file; S1 at
//! the emitting call; S2 at the declaration line inside the schema JSON
//! itself. All rules are skipped gracefully on partial trees (no defining
//! file, no schema), so fixture tests can target one rule at a time.

use crate::items::{AccountingMode, AuditedEnum, EnumDef, FileItems, AUDITED};
use crate::rules::{crate_of, in_s1_scope, RawFinding};
use telemetry::schema::{DeclaredKey, Schema};

/// Repo-relative schema path S2 findings point into.
pub const SCHEMA_PATH: &str = "ci/metrics_schema.json";

/// Runs every cross-file rule and returns raw (pre-pragma-filter) findings.
pub fn run(files: &[(String, FileItems)], schema: Option<&Schema>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for audited in &AUDITED {
        if let Some(def) = find_def(files, audited) {
            e1(files, audited, def, &mut out);
        }
    }
    if let Some(schema) = schema {
        s1(files, schema, &mut out);
        s2(files, schema, &mut out);
    }
    out
}

fn find_def<'a>(files: &'a [(String, FileItems)], a: &AuditedEnum) -> Option<&'a EnumDef> {
    files
        .iter()
        .find(|(rel, _)| rel == a.file)
        .and_then(|(_, items)| items.enums.iter().find(|d| d.name == a.name))
        .filter(|d| !d.variants.is_empty())
}

/// E1: every variant is in `ALL` and has its mode's accounting site.
fn e1(files: &[(String, FileItems)], a: &AuditedEnum, def: &EnumDef, out: &mut Vec<RawFinding>) {
    let n = a.name;
    let mut hit = |line, msg| {
        out.push(RawFinding {
            file: a.file.to_string(),
            line,
            rule: "E1",
            pragma: Some("accounting"),
            msg,
        })
    };
    let Some(all) = &def.all else {
        let msg = format!(
            "{n} has no `const ALL` table in its defining file for per-variant counters \
             (and a derived `parse`) to iterate"
        );
        return hit(def.line, msg);
    };
    for (v, line) in def.variants.iter().filter(|(v, _)| !all.contains(v)) {
        let msg = format!(
            "{n}::{v} is missing from the `{n}::ALL` table, which per-variant counters (and \
             a derived `parse`) iterate: this variant would silently never be accounted"
        );
        hit(*line, msg);
    }
    let (used, why): (Vec<&str>, String) = match a.mode {
        AccountingMode::AllConst => return,
        AccountingMode::AnchorRefs(anchor) => (
            files
                .iter()
                .filter(|(_, items)| items.anchors.iter().any(|m| m == anchor))
                .flat_map(|(_, items)| items.refs.iter())
                .filter(|r| r.enum_name == n)
                .map(|r| r.variant.as_str())
                .collect(),
            format!(
                "has no accounting site: no file referencing {anchor} mentions it, so events \
                 with this variant are invisible in run-level counters"
            ),
        ),
        AccountingMode::ExternalRefs => (
            files
                .iter()
                .filter(|(rel, _)| rel != a.file)
                .flat_map(|(_, items)| items.refs.iter())
                .filter(|r| r.enum_name == n && !r.in_test)
                .map(|r| r.variant.as_str())
                .collect(),
            "is never referenced outside its defining file (non-test): nothing can produce \
             or account this variant"
                .to_string(),
        ),
    };
    for (v, line) in &def.variants {
        if !used.contains(&v.as_str()) {
            hit(*line, format!("{n}::{v} {why}"));
        }
    }
}

/// S1: every emitted registry key must be declared.
fn s1(files: &[(String, FileItems)], schema: &Schema, out: &mut Vec<RawFinding>) {
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
                out.push(RawFinding {
                    file: rel.clone(),
                    line: em.line,
                    rule: "S1",
                    pragma: Some("undeclared-key"),
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
fn s2(files: &[(String, FileItems)], schema: &Schema, out: &mut Vec<RawFinding>) {
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

fn dead(d: &DeclaredKey, what: &str) -> RawFinding {
    let section = if d.section.is_empty() {
        String::new()
    } else {
        format!(" ({} section)", d.section)
    };
    RawFinding {
        file: SCHEMA_PATH.to_string(),
        line: d.line,
        rule: "S2",
        // No pragma: JSON carries no comments — fix the schema instead.
        pragma: None,
        msg: format!(
            "declared {what} \"{}\"{section} has no emission site anywhere in the workspace: \
             the schema is ahead of (or behind) the code",
            d.key
        ),
    }
}
