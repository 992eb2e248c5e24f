//! The ruleset that needs the schema or the file layout, which clippy
//! cannot read. The determinism and PDES rules (D1–D4, P1–P3) are clippy
//! configuration: the root `clippy.toml` and `#![deny]` attributes, each
//! exception an `#[expect(lint, reason)]` (DESIGN §9).
//!
//! | rule | what it forbids                                           |
//! |------|-----------------------------------------------------------|
//! | S1   | emitted registry key the schema does not declare          |
//! | S2   | declared schema key with no emission site                 |
//! | G1   | a `cfg` predicate naming a feature (one source text)      |
//! | G2   | a `crates/dcsim/src` file over 900 lines                  |
//! | G3   | `BTreeMap` in `transport/src/{buffer,tcp}.rs`             |
//! | G4   | a JSON reader outside `telemetry/src/json.rs`             |
//!
//! No rule takes a pragma. G3 skips test-only modules (`cfg(test)`,
//! `cfg(all(test, ..))`; not `cfg(not(test))` or `cfg(any(test, ..))`);
//! G1, G2 and G4 read whole files. G1 covers the workspace's Rust
//! (`crates/`, `src/`, `tests/`, `examples/`) but [`G1_ALIAS`], so a
//! cargo feature forks no code and no test.

use crate::graph;
use crate::items::{self, FileItems};
use crate::lexer::{lex, Tok, TokKind};
use telemetry::schema::Schema;

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`S1`/`S2`, `G1`…`G4`).
    pub rule: &'static str,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

pub(crate) fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Files whose registry emissions rule S1 audits: every crate that writes
/// metric keys, and the root package's sources, but not the linter itself
/// (its rule tables mention key literals).
pub(crate) fn in_s1_scope(rel: &str) -> bool {
    match crate_of(rel) {
        Some(c) => c != "simlint",
        None => rel.starts_with("src/"),
    }
}

/// Whether the whole file is test-only by location.
fn file_is_test(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/") || rel.contains("/benches/")
}

/// Whether an attribute's tokens (between `#[` and `]`) compile its item
/// in test builds only: `cfg(test)` or `cfg(all(.., test, ..))`. A
/// `cfg(not(test))` or `cfg(any(test, ..))` item is non-test code.
fn cfg_test_only(attr: &[Tok]) -> bool {
    let text: Vec<&str> = attr.iter().map(|t| t.text.as_str()).collect();
    match text.as_slice() {
        ["cfg", "(", "test", ")"] => true,
        ["cfg", "(", "all", "(", args @ .., ")", ")"] => {
            // Split at the top-level commas; one argument must be `test`.
            let mut depth = 0i32;
            args.split(|&a| {
                depth += i32::from(a == "(") - i32::from(a == ")");
                a == "," && depth == 0
            })
            .any(|arg| arg == ["test"])
        }
        _ => false,
    }
}

/// Line ranges of test-only ([`cfg_test_only`]) `mod … { }` items, found
/// by brace matching.
fn test_regions(t: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < t.len() {
        if t[i].text == "#" && i + 1 < t.len() && t[i + 1].text == "[" {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < t.len() && depth > 0 {
                match t[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            if cfg_test_only(&t[i + 2..j.saturating_sub(1).max(i + 2)]) {
                // Skip any further attributes, then expect `mod name {`.
                let mut k = j;
                while k + 1 < t.len() && t[k].text == "#" && t[k + 1].text == "[" {
                    let mut d = 1usize;
                    k += 2;
                    while k < t.len() && d > 0 {
                        match t[k].text.as_str() {
                            "[" => d += 1,
                            "]" => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                if k + 2 < t.len() && t[k].text == "mod" && t[k + 2].text == "{" {
                    let start = t[i].line;
                    let mut d = 1usize;
                    let mut m = k + 3;
                    while m < t.len() && d > 0 {
                        match t[m].text.as_str() {
                            "{" => d += 1,
                            "}" => d -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    let end = t.get(m.saturating_sub(1)).map_or(u32::MAX, |tk| tk.line);
                    regions.push((start, end));
                    i = m;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    regions
}

fn in_test_region(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| (a..=b).contains(&line))
}

/// G1–G4: the layout guards (see the module docs).
fn g_rules(rel: &str, src: &str, t: &[Tok], regions: &[(u32, u32)], out: &mut Vec<Finding>) {
    let mut hit = |line, rule, msg| {
        out.push(Finding {
            file: rel.to_string(),
            line,
            rule,
            msg,
        })
    };
    let g1_file = ["crates/", "src/", "tests/", "examples/"]
        .iter()
        .any(|dir| rel.starts_with(dir))
        && rel != G1_ALIAS;
    let g3_file = matches!(
        rel,
        "crates/transport/src/buffer.rs" | "crates/transport/src/tcp.rs"
    );
    for (i, tok) in t.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let prev = if i > 0 { t[i - 1].text.as_str() } else { "" };
        let next = t.get(i + 1).map_or("", |n| n.text.as_str());
        let outside_tests = !in_test_region(regions, tok.line);
        // `(feature =` / `, feature =`: a cfg predicate naming a feature.
        let feature = tok.text == "feature" && matches!(prev, "(" | ",") && next == "=";
        if feature && g1_file {
            let msg = "a cargo feature forks the source; attach observers at run time";
            hit(tok.line, "G1", msg.to_string());
        }
        if tok.text == "BTreeMap" && outside_tests && g3_file {
            let msg = "BTreeMap on the per-packet path; only the test reference may keep one";
            hit(tok.line, "G3", msg.to_string());
        }
        let reader = matches!(
            (tok.text.as_str(), next),
            ("fn", "skip_ws" | "unescape") | ("struct", "Parser") | ("find_string_end", _)
        );
        if reader && rel.starts_with("crates/") && rel.contains("/src/") && rel != G4_READER {
            let msg = format!("a second JSON reader; read JSON through {G4_READER}");
            hit(tok.line, "G4", msg);
        }
    }
    let lines = src.lines().count();
    if lines > 900 && rel.starts_with("crates/dcsim/src/") {
        let msg = format!("{lines} lines, over the 900-line cap on dcsim sources");
        hit(901, "G2", msg);
    }
}

/// The one file G1 lets name a feature: the profiler's `profile` alias,
/// which the benchmark package's traced build selects.
pub const G1_ALIAS: &str = "crates/dcsim/src/profile.rs";

/// The one file G4 lets hold a JSON reader.
const G4_READER: &str = "crates/telemetry/src/json.rs";

/// Everything the pipeline derives from one file: its item summary (for
/// the cross-file rules) plus the G-rule findings.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Item skeleton (emits, literals).
    pub items: FileItems,
    /// Findings from the per-file rules (G1–G4).
    pub findings: Vec<Finding>,
}

/// Lexes one file and runs every per-file rule on it.
pub fn analyze_file(rel: &str, src: &str) -> FileAnalysis {
    let l = lex(src);
    let regions = if file_is_test(rel) {
        vec![(0, u32::MAX)]
    } else {
        test_regions(&l)
    };
    let items = items::extract(&l, &regions);
    let mut findings = Vec::new();
    g_rules(rel, src, &l, &regions, &mut findings);
    FileAnalysis { items, findings }
}

/// Runs the cross-file rules and returns every finding, sorted by path,
/// line and rule.
pub fn finish(files: &[(String, FileAnalysis)], schema: Option<&Schema>) -> Vec<Finding> {
    let item_view: Vec<(String, FileItems)> = files
        .iter()
        .map(|(rel, a)| (rel.clone(), a.items.clone()))
        .collect();
    let mut out: Vec<Finding> = files
        .iter()
        .flat_map(|(_, a)| a.findings.iter().cloned())
        .collect();
    out.extend(graph::run(&item_view, schema));
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out.dedup();
    out
}

/// Lints a set of `(repo-relative path, source)` files with no schema
/// (schema-dependent rules are skipped, as on any partial tree) and returns
/// all findings, sorted by path then line.
pub fn lint_files(files: &[(String, String)]) -> Vec<Finding> {
    lint_files_with_schema(files, None).expect("no schema text, no parse error")
}

/// Lints a set of files against an optional `ci/metrics_schema.json` text.
///
/// # Errors
///
/// Returns the parse error message when `schema_text` is malformed JSON.
pub fn lint_files_with_schema(
    files: &[(String, String)],
    schema_text: Option<&str>,
) -> Result<Vec<Finding>, String> {
    let schema = match schema_text {
        Some(text) => {
            Some(Schema::parse(text).map_err(|e| format!("{}: {e}", graph::SCHEMA_PATH))?)
        }
        None => None,
    };
    let analyses: Vec<(String, FileAnalysis)> = files
        .iter()
        .map(|(rel, src)| (rel.clone(), analyze_file(rel, src)))
        .collect();
    Ok(finish(&analyses, schema.as_ref()))
}
