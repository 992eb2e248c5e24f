//! Cross-file rules over the workspace item graph.
//!
//! [`run`] consumes the per-file [`FileItems`] summaries plus the declared
//! key model from `ci/metrics_schema.json` and produces the E/S rule
//! families:
//!
//! | rule | pragma           | what it checks                                 |
//! |------|------------------|------------------------------------------------|
//! | E1   | `accounting`     | every audited-enum variant has an accounting   |
//! |      |                  | site (the `ALL` table, an anchor-file ref, or  |
//! |      |                  | an external use site, per [`AccountingMode`])  |
//! | E2   | `render`         | every variant has a wire-tag render arm, and   |
//! |      |                  | its tag parses back (the `_ => None` wildcard  |
//! |      |                  | in `parse` otherwise hides a missing arm)      |
//! | E3   | `schema-key`     | per-variant counters (`drops_*`,               |
//! |      |                  | `rto_cause_*`) are declared in the schema      |
//! | S1   | `undeclared-key` | emitted registry keys are declared             |
//! | S2   | `dead-key`       | declared keys still have an emission site      |
//!
//! E-rules report at the variant's declaration line in the defining file;
//! S1 at the emitting call; S2 at the declaration line inside the schema
//! JSON itself. All rules are skipped gracefully on partial trees (no
//! defining file, no schema), so fixture tests can target one rule at a
//! time — mirroring how D5 behaved.

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
            e2(audited, def, &mut out);
            if let Some(schema) = schema {
                e3(audited, def, schema, &mut out);
            }
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

fn finding(
    a: &AuditedEnum,
    line: u32,
    rule: &'static str,
    pragma: &'static str,
    msg: String,
) -> RawFinding {
    RawFinding {
        file: a.file.to_string(),
        line,
        rule,
        pragma: Some(pragma),
        msg,
    }
}

/// E1: every variant has an accounting site.
fn e1(files: &[(String, FileItems)], a: &AuditedEnum, def: &EnumDef, out: &mut Vec<RawFinding>) {
    match a.mode {
        AccountingMode::AllConst => {
            let Some(all) = &def.all else {
                out.push(finding(
                    a,
                    def.line,
                    "E1",
                    "accounting",
                    format!(
                        "{} accounting iterates a `const ALL` table, but none was found in its \
                         defining file",
                        a.name
                    ),
                ));
                return;
            };
            for (v, line) in &def.variants {
                if !all.contains(v) {
                    out.push(finding(
                        a,
                        *line,
                        "E1",
                        "accounting",
                        format!(
                            "{n}::{v} is missing from the `{n}::ALL` accounting table: per-variant \
                             counters iterate ALL, so this variant would silently never be \
                             accounted",
                            n = a.name
                        ),
                    ));
                }
            }
        }
        AccountingMode::AnchorRefs(anchor) => {
            let accounted: Vec<&str> = files
                .iter()
                .filter(|(_, items)| items.anchors.iter().any(|m| m == anchor))
                .flat_map(|(_, items)| items.refs.iter())
                .filter(|r| r.enum_name == a.name)
                .map(|r| r.variant.as_str())
                .collect();
            for (v, line) in &def.variants {
                if !accounted.iter().any(|x| x == v) {
                    out.push(finding(
                        a,
                        *line,
                        "E1",
                        "accounting",
                        format!(
                            "{n}::{v} has no accounting site: no file referencing {anchor} \
                             mentions it, so events with this variant are invisible in run-level \
                             counters",
                            n = a.name
                        ),
                    ));
                }
            }
        }
        AccountingMode::ExternalRefs => {
            let used: Vec<&str> = files
                .iter()
                .filter(|(rel, _)| rel != a.file)
                .flat_map(|(_, items)| items.refs.iter())
                .filter(|r| r.enum_name == a.name && !r.in_test)
                .map(|r| r.variant.as_str())
                .collect();
            for (v, line) in &def.variants {
                if !used.iter().any(|x| x == v) {
                    out.push(finding(
                        a,
                        *line,
                        "E1",
                        "accounting",
                        format!(
                            "{n}::{v} is never referenced outside its defining file (non-test): \
                             nothing can produce or account this variant",
                            n = a.name
                        ),
                    ));
                }
            }
        }
    }
}

/// E2: render-arm coverage and tag round-trip.
fn e2(a: &AuditedEnum, def: &EnumDef, out: &mut Vec<RawFinding>) {
    for (v, line) in &def.variants {
        let Some((_, tag, arm_line)) = def.render.iter().find(|(rv, _, _)| rv == v) else {
            out.push(finding(
                a,
                *line,
                "E2",
                "render",
                format!(
                    "{n}::{v} has no wire-tag render arm (`{n}::{v} => \"…\"`) in its defining \
                     file, so traces and metric names cannot carry it",
                    n = a.name
                ),
            ));
            continue;
        };
        // Round-trip: only meaningful for enums that have a parser at all.
        if !def.parse.is_empty() && !def.parse.iter().any(|(pt, pv, _)| pt == tag && pv == v) {
            out.push(finding(
                a,
                *arm_line,
                "E2",
                "render",
                format!(
                    "wire tag \"{tag}\" ({n}::{v}) is rendered but never parsed back: the \
                     `_ => None` wildcard in `parse` hides the missing arm, so decoded traces \
                     drop these events",
                    n = a.name
                ),
            ));
        }
    }
}

/// E3: per-variant schema counters.
fn e3(a: &AuditedEnum, def: &EnumDef, schema: &Schema, out: &mut Vec<RawFinding>) {
    let Some(prefix) = a.schema_prefix else {
        return;
    };
    for (v, line) in &def.variants {
        // Without a render arm there is no tag to build the key from — E2
        // already reports that; avoid a cascading duplicate.
        let Some((_, tag, _)) = def.render.iter().find(|(rv, _, _)| rv == v) else {
            continue;
        };
        let key = format!("{prefix}{tag}");
        if !schema.allows_exact(&key) {
            out.push(finding(
                a,
                *line,
                "E3",
                "schema-key",
                format!(
                    "{n}::{v} implies counter `{key}`, which {SCHEMA_PATH} does not declare: \
                     exports would carry a key no validator checks",
                    n = a.name
                ),
            ));
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
