//! Per-file item extraction: the nodes of the workspace item graph.
//!
//! The lexer gives a flat token stream; this module raises it to the item
//! skeletons the cross-file rules need — audited enum definitions (with
//! their variants, `ALL` initializers, and wire-tag match arms), variant
//! references, registry-key emission sites, and metric-shaped string
//! literals. A [`FileItems`] is small, content-addressed, and serializable
//! (see [`FileItems::to_json`]), so the per-file cache can skip lexing and
//! extraction for unchanged files while the cheap cross-file passes in
//! [`crate::graph`] rerun every time.

use crate::lexer::{str_contents, Lexed, TokKind};
use std::collections::BTreeMap;
use telemetry::json::Value;

/// How rule E1 decides a variant has an accounting site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccountingMode {
    /// The enum carries a `const ALL: [Self; N]` table and accounting
    /// iterates it — every variant must appear in the initializer (the
    /// array length is explicit, so the compiler accepts a stale table).
    AllConst,
    /// Accounting files are marked by mentioning this identifier (e.g.
    /// `AggregateStats`); every variant must be referenced in one of them.
    AnchorRefs(&'static str),
    /// Every variant must be referenced, outside test regions, in some
    /// file other than the defining one.
    ExternalRefs,
}

/// One enum under exhaustive-accounting audit (the E-rules).
pub struct AuditedEnum {
    /// Enum name.
    pub name: &'static str,
    /// Repo-relative defining file.
    pub file: &'static str,
    /// How E1 checks accounting coverage.
    pub mode: AccountingMode,
    /// E3: each variant's wire tag, prefixed with this, must be a declared
    /// schema counter (`None`: the enum has no per-variant counters).
    pub schema_prefix: Option<&'static str>,
}

/// The audited-enum table. Growing one of these enums without growing its
/// accounting/render/schema surfaces is exactly the drift the E-rules stop.
pub const AUDITED: [AuditedEnum; 5] = [
    AuditedEnum {
        name: "DropWhy",
        file: "crates/telemetry/src/event.rs",
        mode: AccountingMode::AnchorRefs("AggregateStats"),
        schema_prefix: Some("drops_"),
    },
    AuditedEnum {
        name: "RtoCause",
        file: "crates/telemetry/src/event.rs",
        mode: AccountingMode::AllConst,
        schema_prefix: Some("rto_cause_"),
    },
    AuditedEnum {
        name: "FaultKind",
        file: "crates/telemetry/src/event.rs",
        mode: AccountingMode::ExternalRefs,
        schema_prefix: None,
    },
    AuditedEnum {
        name: "EvKind",
        file: "crates/dcsim/src/profile.rs",
        mode: AccountingMode::AllConst,
        schema_prefix: None,
    },
    // The latency-ledger phase decomposition: the conservation invariant
    // (Σ phases == FCT) only closes if every variant is accounted, rendered,
    // and exported, so a new phase that misses any surface is exactly the
    // drift E1–E3 exist to stop.
    AuditedEnum {
        name: "Phase",
        file: "crates/telemetry/src/event.rs",
        mode: AccountingMode::AllConst,
        schema_prefix: Some("span_phase_ns/"),
    },
];

fn audited_name(s: &str) -> bool {
    AUDITED.iter().any(|a| a.name == s)
}

/// Registry methods whose first string argument is a metric key.
const EMIT_METHODS: [&str; 4] = ["inc", "observe", "gauge_max", "merge_hist"];

/// An audited enum definition found in a file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnumDef {
    /// Enum name.
    pub name: String,
    /// Line of the `enum` keyword.
    pub line: u32,
    /// Unit variants, with the line each is declared on.
    pub variants: Vec<(String, u32)>,
    /// Variant names listed in a `const ALL: [Name; N] = […]` initializer
    /// in the same file, if one exists.
    pub all: Option<Vec<String>>,
    /// Render arms `Name::V => "tag"` anywhere in the file:
    /// `(variant, tag, line)`.
    pub render: Vec<(String, String, u32)>,
    /// Parse arms `"tag" => Name::V` anywhere in the file:
    /// `(tag, variant, line)`.
    pub parse: Vec<(String, String, u32)>,
}

/// A `Name::Variant` reference to an audited enum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VariantRef {
    /// Enum name.
    pub enum_name: String,
    /// Variant name.
    pub variant: String,
    /// 1-based line of the reference.
    pub line: u32,
    /// Whether the reference sits inside a `#[cfg(test)]` region (or a
    /// tests-by-location file).
    pub in_test: bool,
}

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
    /// Suppression pragmas: `(rule name, line)`.
    pub pragmas: Vec<(String, u32)>,
    /// Audited enum definitions in this file.
    pub enums: Vec<EnumDef>,
    /// References to audited-enum variants.
    pub refs: Vec<VariantRef>,
    /// Audited anchor identifiers this file mentions (e.g.
    /// `AggregateStats`), marking it as an accounting file.
    pub anchors: Vec<String>,
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
pub fn extract(l: &Lexed, test_regions: &[(u32, u32)]) -> FileItems {
    let t = &l.toks;
    let mut out = FileItems {
        pragmas: l.pragmas.iter().map(|p| (p.rule.clone(), p.line)).collect(),
        ..FileItems::default()
    };
    let mut all_inits: Vec<(String, Vec<String>)> = Vec::new();
    let mut literals = std::collections::BTreeSet::new();

    let ident = |i: usize, s: &str| {
        t.get(i)
            .is_some_and(|k| k.kind == TokKind::Ident && k.text == s)
    };
    let punct = |i: usize, s: &str| {
        t.get(i)
            .is_some_and(|k| k.kind == TokKind::Punct && k.text == s)
    };
    let is_str = |i: usize| t.get(i).is_some_and(|k| k.kind == TokKind::Str);
    let path_sep = |i: usize| punct(i, ":") && punct(i + 1, ":");
    let arrow = |i: usize| punct(i, "=") && punct(i + 1, ">");

    for (i, tok) in t.iter().enumerate() {
        match tok.kind {
            TokKind::Str => {
                let c = str_contents(&tok.text);
                if !in_region(test_regions, tok.line) && metric_shaped(c) {
                    literals.insert(c.to_string());
                }
                // Parse arm: `"tag" => Name::V`.
                if arrow(i + 1)
                    && ident_is_audited(t, i + 3)
                    && path_sep(i + 4)
                    && is_variant_ident(t, i + 6)
                {
                    push_arm(
                        &mut out.enums,
                        &t[i + 3].text,
                        tok.line,
                        Arm::Parse(c.to_string(), t[i + 6].text.clone()),
                    );
                }
            }
            TokKind::Ident => {
                if audited_name(&tok.text) {
                    // Anchor mention bookkeeping happens below (anchors are
                    // plain idents, not necessarily audited enum names).
                    // Enum definition: `enum Name {`.
                    if i > 0 && ident(i - 1, "enum") && punct(i + 1, "{") {
                        let (def, _) = collect_enum_def(t, i);
                        out.enums.push(def);
                    }
                    // `Name::V` reference.
                    if path_sep(i + 1) && is_variant_ident(t, i + 3) {
                        out.refs.push(VariantRef {
                            enum_name: tok.text.clone(),
                            variant: t[i + 3].text.clone(),
                            line: tok.line,
                            in_test: in_region(test_regions, tok.line),
                        });
                        // Render arm: `Name::V => "tag"`.
                        if arrow(i + 4) && is_str(i + 6) {
                            push_arm(
                                &mut out.enums,
                                &tok.text,
                                tok.line,
                                Arm::Render(
                                    t[i + 3].text.clone(),
                                    str_contents(&t[i + 6].text).to_string(),
                                ),
                            );
                        }
                    }
                    // `const ALL: [Name; N] = […]` initializer.
                    if i >= 4
                        && ident(i - 4, "const")
                        && ident(i - 3, "ALL")
                        && punct(i - 2, ":")
                        && punct(i - 1, "[")
                    {
                        all_inits.push((tok.text.clone(), collect_all_init(t, i)));
                    }
                }
                if AUDITED.iter().any(
                    |a| matches!(a.mode, AccountingMode::AnchorRefs(anchor) if anchor == tok.text),
                ) && !out.anchors.contains(&tok.text)
                {
                    out.anchors.push(tok.text.clone());
                }
                // Emission site: `.inc(…)` etc., first string inside the
                // balanced argument list.
                if EMIT_METHODS.contains(&tok.text.as_str())
                    && i > 0
                    && punct(i - 1, ".")
                    && punct(i + 1, "(")
                    && !in_region(test_regions, tok.line)
                {
                    if let Some(em) = first_key_in_args(t, i + 2, tok.line) {
                        out.emits.push(em);
                    }
                }
            }
            _ => {}
        }
    }

    // Attach ALL initializers to the defs in this file. Arms found before
    // the enum definition were attached by `push_arm`'s stub mechanism; an
    // ALL table without a local definition is dropped (it cannot happen in
    // real code — `Self`-free initializers name the enum, defined above).
    for (name, vars) in all_inits {
        if let Some(def) = out.enums.iter_mut().find(|d| d.name == name) {
            def.all = Some(vars);
        }
    }
    out.literals = literals.into_iter().collect();
    out
}

fn ident_is_audited(t: &[crate::lexer::Tok], i: usize) -> bool {
    t.get(i)
        .is_some_and(|k| k.kind == TokKind::Ident && audited_name(&k.text))
}

/// A variant position must be an UpperCamelCase identifier that is not the
/// `ALL` table itself (associated consts and lowercase method/assoc-fn
/// names are not variants).
fn is_variant_ident(t: &[crate::lexer::Tok], i: usize) -> bool {
    t.get(i).is_some_and(|k| {
        k.kind == TokKind::Ident
            && k.text != "ALL"
            && k.text.starts_with(|c: char| c.is_ascii_uppercase())
            && !k.text.chars().all(|c| c.is_ascii_uppercase() || c == '_')
    })
}

enum Arm {
    Render(String, String),
    Parse(String, String),
}

/// Records a render/parse arm on the file's def for `name`, creating a stub
/// def (no variants) if the arm precedes the definition token-wise; stubs
/// are completed when the real definition is found (same `name` key).
fn push_arm(enums: &mut Vec<EnumDef>, name: &str, line: u32, arm: Arm) {
    let def = match enums.iter_mut().find(|d| d.name == name) {
        Some(d) => d,
        None => {
            enums.push(EnumDef {
                name: name.to_string(),
                ..EnumDef::default()
            });
            enums.last_mut().expect("just pushed")
        }
    };
    match arm {
        Arm::Render(variant, tag) => def.render.push((variant, tag, line)),
        Arm::Parse(tag, variant) => def.parse.push((tag, variant, line)),
    }
}

/// Collects the unit variants of `enum Name { … }`; `i` indexes the name
/// token. Returns the def and the index past the closing brace.
fn collect_enum_def(t: &[crate::lexer::Tok], i: usize) -> (EnumDef, usize) {
    let mut def = EnumDef {
        name: t[i].text.clone(),
        line: t[i].line,
        ..EnumDef::default()
    };
    let mut depth = 1usize;
    let mut j = i + 2;
    while j < t.len() && depth > 0 {
        match t[j].text.as_str() {
            "{" | "(" => depth += 1,
            "}" | ")" => depth -= 1,
            "#" if depth == 1 && j + 1 < t.len() && t[j + 1].text == "[" => {
                // Skip attributes on variants.
                let mut d = 1usize;
                j += 2;
                while j < t.len() && d > 0 {
                    match t[j].text.as_str() {
                        "[" => d += 1,
                        "]" => d -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                continue;
            }
            _ if depth == 1
                && t[j].kind == TokKind::Ident
                && j + 1 < t.len()
                && matches!(t[j + 1].text.as_str(), "," | "}") =>
            {
                def.variants.push((t[j].text.clone(), t[j].line));
            }
            _ => {}
        }
        j += 1;
    }
    (def, j)
}

/// Collects the `Name::V` variant names inside the `= […]` initializer of a
/// `const ALL: [Name; N]` item; `i` indexes the element-type name token.
fn collect_all_init(t: &[crate::lexer::Tok], i: usize) -> Vec<String> {
    let name = &t[i].text;
    // Skip past the type's closing `]` (it contains a `;` of its own:
    // `[Name; N]`), then find `=` and the opening `[` of the initializer.
    let mut j = i + 1;
    let mut depth = 1usize; // the `[` at i - 1
    while j < t.len() && depth > 0 {
        match t[j].text.as_str() {
            "[" => depth += 1,
            "]" => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    while j < t.len() && t[j].text != "=" && t[j].text != ";" {
        j += 1;
    }
    if j >= t.len() || t[j].text != "=" {
        return Vec::new();
    }
    while j < t.len() && t[j].text != "[" {
        j += 1;
    }
    let mut vars = Vec::new();
    let mut depth = 1usize;
    j += 1;
    while j < t.len() && depth > 0 {
        match t[j].text.as_str() {
            "[" => depth += 1,
            "]" => depth -= 1,
            _ if t[j].text == *name
                && j + 3 < t.len()
                && t[j + 1].text == ":"
                && t[j + 2].text == ":"
                && t[j + 3].kind == TokKind::Ident =>
            {
                vars.push(t[j + 3].text.clone());
            }
            _ => {}
        }
        j += 1;
    }
    vars
}

/// The first string literal inside the balanced argument list starting at
/// token index `open + 1` (where `open` indexes `(`)… reduced to an emitted
/// key: a literal with a `{` interpolation is truncated to its prefix; an
/// empty prefix (the format starts with an interpolation, e.g.
/// `"{}{scheme}"`) is unresolvable and skipped.
fn first_key_in_args(t: &[crate::lexer::Tok], mut j: usize, line: u32) -> Option<EmittedKey> {
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

// ---------------------------------------------------------------------------
// Cache (de)serialization.

impl FileItems {
    /// Serializes to a JSON value for the per-file cache.
    pub fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        let arr = |v: Vec<Value>| Value::Arr(v);
        m.insert(
            "pragmas".to_string(),
            (
                arr(self
                    .pragmas
                    .iter()
                    .map(|(r, l)| arr(vec![s(r), n(*l)]))
                    .collect()),
                1,
            ),
        );
        m.insert(
            "enums".to_string(),
            (arr(self.enums.iter().map(enum_to_json).collect()), 1),
        );
        m.insert(
            "refs".to_string(),
            (
                arr(self
                    .refs
                    .iter()
                    .map(|r| {
                        arr(vec![
                            s(&r.enum_name),
                            s(&r.variant),
                            n(r.line),
                            Value::Bool(r.in_test),
                        ])
                    })
                    .collect()),
                1,
            ),
        );
        m.insert(
            "anchors".to_string(),
            (arr(self.anchors.iter().map(|a| s(a)).collect()), 1),
        );
        m.insert(
            "emits".to_string(),
            (
                arr(self
                    .emits
                    .iter()
                    .map(|e| arr(vec![s(&e.key), Value::Bool(e.prefix), n(e.line)]))
                    .collect()),
                1,
            ),
        );
        m.insert(
            "literals".to_string(),
            (arr(self.literals.iter().map(|a| s(a)).collect()), 1),
        );
        Value::Obj(m)
    }

    /// Deserializes a cached value; `None` on any shape mismatch (treated
    /// as a cache miss by the caller).
    pub fn from_json(v: &Value) -> Option<FileItems> {
        let mut out = FileItems::default();
        for p in v.get("pragmas")?.items() {
            out.pragmas
                .push((p.items().first()?.as_str()?.to_string(), line_of(p, 1)?));
        }
        for e in v.get("enums")?.items() {
            out.enums.push(enum_from_json(e)?);
        }
        for r in v.get("refs")?.items() {
            let it = r.items();
            out.refs.push(VariantRef {
                enum_name: it.first()?.as_str()?.to_string(),
                variant: it.get(1)?.as_str()?.to_string(),
                line: u32::try_from(it.get(2)?.as_u64()?).ok()?,
                in_test: matches!(it.get(3)?, Value::Bool(true)),
            });
        }
        for a in v.get("anchors")?.items() {
            out.anchors.push(a.as_str()?.to_string());
        }
        for e in v.get("emits")?.items() {
            let it = e.items();
            out.emits.push(EmittedKey {
                key: it.first()?.as_str()?.to_string(),
                prefix: matches!(it.get(1)?, Value::Bool(true)),
                line: u32::try_from(it.get(2)?.as_u64()?).ok()?,
            });
        }
        for l in v.get("literals")?.items() {
            out.literals.push(l.as_str()?.to_string());
        }
        Some(out)
    }
}

fn s(t: &str) -> Value {
    Value::Str(t.to_string(), 1)
}

fn n(v: u32) -> Value {
    Value::Num(u64::from(v))
}

fn line_of(arr: &Value, idx: usize) -> Option<u32> {
    u32::try_from(arr.items().get(idx)?.as_u64()?).ok()
}

fn enum_to_json(d: &EnumDef) -> Value {
    let mut m = BTreeMap::new();
    m.insert("name".to_string(), (s(&d.name), 1));
    m.insert("line".to_string(), (n(d.line), 1));
    m.insert(
        "variants".to_string(),
        (
            Value::Arr(
                d.variants
                    .iter()
                    .map(|(v, l)| Value::Arr(vec![s(v), n(*l)]))
                    .collect(),
            ),
            1,
        ),
    );
    m.insert(
        "all".to_string(),
        (
            match &d.all {
                None => Value::Null,
                Some(vars) => Value::Arr(vars.iter().map(|v| s(v)).collect()),
            },
            1,
        ),
    );
    let arms = |list: &[(String, String, u32)]| {
        Value::Arr(
            list.iter()
                .map(|(a, b, l)| Value::Arr(vec![s(a), s(b), n(*l)]))
                .collect(),
        )
    };
    m.insert("render".to_string(), (arms(&d.render), 1));
    m.insert("parse".to_string(), (arms(&d.parse), 1));
    Value::Obj(m)
}

fn enum_from_json(v: &Value) -> Option<EnumDef> {
    let mut d = EnumDef {
        name: v.get("name")?.as_str()?.to_string(),
        line: u32::try_from(v.get("line")?.as_u64()?).ok()?,
        ..EnumDef::default()
    };
    for pair in v.get("variants")?.items() {
        d.variants.push((
            pair.items().first()?.as_str()?.to_string(),
            line_of(pair, 1)?,
        ));
    }
    d.all = match v.get("all")? {
        Value::Null => None,
        arr => {
            let mut vars = Vec::new();
            for x in arr.items() {
                vars.push(x.as_str()?.to_string());
            }
            Some(vars)
        }
    };
    let arms = |key: &str| -> Option<Vec<(String, String, u32)>> {
        let mut out = Vec::new();
        for a in v.get(key)?.items() {
            let it = a.items();
            out.push((
                it.first()?.as_str()?.to_string(),
                it.get(1)?.as_str()?.to_string(),
                u32::try_from(it.get(2)?.as_u64()?).ok()?,
            ));
        }
        Some(out)
    };
    d.render = arms("render")?;
    d.parse = arms("parse")?;
    Some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const EVENT_SNIPPET: &str = r#"
pub enum RtoCause { Color, Delay }
impl RtoCause {
    pub const ALL: [RtoCause; 2] = [RtoCause::Color, RtoCause::Delay];
    pub fn as_str(self) -> &'static str {
        match self {
            RtoCause::Color => "color",
            RtoCause::Delay => "delay",
        }
    }
    pub fn parse(s: &str) -> Option<RtoCause> {
        Some(match s {
            "color" => RtoCause::Color,
            "delay" => RtoCause::Delay,
            _ => return None,
        })
    }
}
"#;

    #[test]
    fn extracts_enum_def_all_and_arms() {
        let l = lex(EVENT_SNIPPET);
        let items = extract(&l, &[]);
        let def = items.enums.iter().find(|d| d.name == "RtoCause").unwrap();
        let vars: Vec<&str> = def.variants.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(vars, ["Color", "Delay"]);
        assert_eq!(
            def.all.as_deref(),
            Some(&["Color".to_string(), "Delay".to_string()][..])
        );
        assert_eq!(def.render.len(), 2);
        assert_eq!(def.render[0].0, "Color");
        assert_eq!(def.render[0].1, "color");
        assert_eq!(def.parse.len(), 2);
        assert_eq!(
            def.parse[1],
            ("delay".to_string(), "Delay".to_string(), def.parse[1].2)
        );
        // `RtoCause::ALL`-style associated items are not variant refs, but
        // the initializer's members are.
        assert!(items.refs.iter().any(|r| r.variant == "Color"));
        assert!(!items.refs.iter().any(|r| r.variant == "ALL"));
    }

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
    fn anchor_mentions_and_test_refs_are_tracked() {
        let src = "fn account(s: &mut AggregateStats) { s.on_drop(DropWhy::Color); }\n#[cfg(test)]\nmod tests { fn t() { let _ = DropWhy::Wire; } }";
        let l = lex(src);
        let items = extract(&l, &[(2, 3)]);
        assert_eq!(items.anchors, ["AggregateStats"]);
        let color = items.refs.iter().find(|r| r.variant == "Color").unwrap();
        assert!(!color.in_test);
        let wire = items.refs.iter().find(|r| r.variant == "Wire").unwrap();
        assert!(wire.in_test);
    }

    #[test]
    fn items_roundtrip_through_json() {
        let l = lex(EVENT_SNIPPET);
        let items = extract(&l, &[]);
        let v = items.to_json();
        let text = telemetry::json::write(&v);
        let back = FileItems::from_json(&telemetry::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.enums, items.enums);
        assert_eq!(back.refs, items.refs);
        assert_eq!(back.emits, items.emits);
        assert_eq!(back.literals, items.literals);
        assert_eq!(back.pragmas, items.pragmas);
        assert_eq!(back.anchors, items.anchors);
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
