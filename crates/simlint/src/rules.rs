//! The determinism & conservation ruleset.
//!
//! Scope: the simulation crates (`eventsim`, `netsim`, `transport`, `dcsim`,
//! `faults`, `workload`, `core`, `stats`, `serve`) plus the root package's
//! `src/` and `tests/`. `telemetry` is an output-only layer and exempt from
//! the D-rules (it still participates in the cross-file E/S rules and L1).
//! `bench` is exempt from everything *except* a narrowed D2: the harness
//! reads no wall clock (`Instant`/`SystemTime`) at all — speed is the repo
//! benchmark's to measure.
//! `simlint` lints itself under D1–D3 (its fixtures, which deliberately
//! embed violating text, stay exempt via the tree walk).
//!
//! Every per-file rule but the G-rules can be suppressed for one binding
//! with `// simlint: allow(<pragma>, <reason>)` on the same or the
//! preceding line. A pragma that suppresses nothing is itself a finding
//! (L1).
//!
//! | rule | pragma           | what it forbids                                  |
//! |------|------------------|--------------------------------------------------|
//! | D1   | `unordered`      | `HashMap`/`HashSet` (iteration order is seeded)  |
//! | D2   | `wallclock`      | `Instant`/`SystemTime`/`rand::`/`env::`/thread-id|
//! | D3   | `float-order`    | `partial_cmp` ordering; use `total_cmp`          |
//! | D4   | `truncation`     | bare `as u8/u16/u32` in byte-accounting paths    |
//! | E1   | `accounting`     | audited-enum variant without an accounting site  |
//! | E2   | `render`         | variant without a render arm / unparseable tag   |
//! | E3   | `schema-key`     | variant counter missing from the metrics schema  |
//! | S1   | `undeclared-key` | emitted registry key the schema does not declare |
//! | S2   | —                | declared schema key with no emission site        |
//! | P1   | `shared-state`   | `static mut` / `Mutex`/`RwLock` statics in sim   |
//! | P2   | `interior-mut`   | `Rc`/`RefCell`/`Cell`/`UnsafeCell` in sim crates |
//! | P3   | `thread-local`   | `thread_local!` in sim crates                    |
//! | L1   | —                | a pragma that suppresses zero findings           |
//! | G1   | —                | a `cfg` predicate naming a feature in the engine |
//! | G2   | —                | a `crates/dcsim/src` file over 900 lines         |
//! | G3   | —                | `BTreeMap` in `transport/src/{buffer,tcp}.rs`    |
//! | G4   | —                | a JSON reader outside `telemetry/src/json.rs`    |
//!
//! The P-rules exist for ROADMAP item 1 (conservative-PDES sharding): an
//! engine split across worker threads can only stay byte-deterministic if
//! its state is share-nothing and mergeable, so non-`Send` interior
//! mutability and process-global state are rejected *before* the sharding
//! refactor, not debugged after it.
//!
//! The G-rules are the layout guards DESIGN §9 describes, by path and with
//! no pragma. G1 and G3 skip test-only modules (`cfg(test)`,
//! `cfg(all(test, ..))`; not `cfg(not(test))` or `cfg(any(test, ..))`);
//! G2 and G4 read whole files.

use crate::graph;
use crate::items::{self, FileItems};
use crate::lexer::{lex, Lexed, Tok, TokKind};
use std::collections::BTreeMap;
use telemetry::schema::Schema;

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D1`…`D4`, `E1`…`E3`, `S1`/`S2`, `P1`…`P3`, `L1`,
    /// `G1`…`G4`).
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

/// A finding before pragma filtering. Rules emit these unconditionally —
/// the pipeline applies suppressions centrally so it can also detect stale
/// pragmas (L1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawFinding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id.
    pub rule: &'static str,
    /// Pragma name that may suppress this finding (`None`: unsuppressable).
    pub pragma: Option<&'static str>,
    /// Human-readable message.
    pub msg: String,
}

/// Crates the determinism rules apply to.
const SIM_CRATES: [&str; 9] = [
    "core",
    "dcsim",
    "eventsim",
    "faults",
    "netsim",
    "serve",
    "stats",
    "transport",
    "workload",
];

/// Files whose numeric casts are byte-accounting (rule D4).
const D4_FILES: [&str; 3] = [
    "crates/netsim/src/packet.rs",
    "crates/netsim/src/switch.rs",
    "crates/netsim/src/link.rs",
];

/// `stats::percentile` is the one sanctioned float-ordering site (it uses
/// `total_cmp`, and D3 exists to funnel everything through it).
const D3_EXEMPT: &str = "crates/stats/src/percentile.rs";

pub(crate) fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    rest.split('/').next()
}

fn in_sim_scope(rel: &str) -> bool {
    match crate_of(rel) {
        Some(c) => SIM_CRATES.contains(&c),
        // The root package's own sources and integration tests drive the
        // simulator and its determinism assertions.
        None => rel.starts_with("src/") || rel.starts_with("tests/"),
    }
}

/// Files whose registry emissions rule S1 audits: everything that writes
/// metric keys — the sim crates, the harness, and the telemetry layer —
/// except the linter itself (its rule tables mention key literals).
pub(crate) fn in_s1_scope(rel: &str) -> bool {
    match crate_of(rel) {
        Some("simlint") => false,
        Some(c) => SIM_CRATES.contains(&c) || c == "bench" || c == "telemetry",
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
fn test_regions(l: &Lexed) -> Vec<(u32, u32)> {
    let t = &l.toks;
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

fn raw(rel: &str, line: u32, rule: &'static str, pragma: &'static str, msg: String) -> RawFinding {
    RawFinding {
        file: rel.to_string(),
        line,
        rule,
        pragma: Some(pragma),
        msg,
    }
}

/// D1: unordered containers.
fn d1(rel: &str, l: &Lexed, out: &mut Vec<RawFinding>) {
    for t in &l.toks {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(raw(
                rel,
                t.line,
                "D1",
                "unordered",
                format!(
                    "{} iteration order is randomized per process; use BTreeMap/BTreeSet, \
                     or add `// simlint: allow(unordered, <reason>)` if it is never iterated",
                    t.text
                ),
            ));
        }
    }
}

/// D2: wall-clock / entropy / environment reads.
fn d2(rel: &str, l: &Lexed, regions: &[(u32, u32)], out: &mut Vec<RawFinding>) {
    let t = &l.toks;
    let hit = |line: u32, what: &str, out: &mut Vec<RawFinding>| {
        out.push(raw(
            rel,
            line,
            "D2",
            "wallclock",
            format!(
                "{what} is nondeterministic across runs/hosts; derive everything from \
                 SimTime and SimRng (seeded)"
            ),
        ));
    };
    for (i, tok) in t.iter().enumerate() {
        if tok.kind != TokKind::Ident || in_test_region(regions, tok.line) {
            continue;
        }
        let path_follows =
            |i: usize| i + 2 < t.len() && t[i + 1].text == ":" && t[i + 2].text == ":";
        match tok.text.as_str() {
            "Instant" => hit(tok.line, "std::time::Instant", out),
            "SystemTime" => hit(tok.line, "std::time::SystemTime", out),
            "ThreadId" => hit(tok.line, "thread id", out),
            "rand" if path_follows(i) => hit(tok.line, "the `rand` crate", out),
            "env" if path_follows(i) => hit(tok.line, "std::env", out),
            "thread" if path_follows(i) && i + 3 < t.len() && t[i + 3].text == "current" => {
                hit(tok.line, "std::thread::current()", out)
            }
            _ => {}
        }
    }
}

/// D2 (bench extension): wall-clock reads in the harness crate. `bench`
/// legitimately uses `std::env` (CLI flags) and threads (the worker pool),
/// but every artifact it writes is deterministic, and an elapsed-time
/// reading is one refactor away from contaminating one.
fn d2_bench(rel: &str, l: &Lexed, regions: &[(u32, u32)], out: &mut Vec<RawFinding>) {
    for tok in &l.toks {
        if tok.kind != TokKind::Ident || in_test_region(regions, tok.line) {
            continue;
        }
        if matches!(tok.text.as_str(), "Instant" | "SystemTime") {
            out.push(raw(
                rel,
                tok.line,
                "D2",
                "wallclock",
                format!(
                    "std::time::{} read in the harness crate, whose outputs are \
                     deterministic; time runs with the repo benchmark (benchmark/)",
                    tok.text
                ),
            ));
        }
    }
}

/// D3: float ordering through `partial_cmp`.
fn d3(rel: &str, l: &Lexed, out: &mut Vec<RawFinding>) {
    if rel == D3_EXEMPT {
        return;
    }
    let t = &l.toks;
    for (i, tok) in t.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        if tok.text == "partial_cmp" {
            // `fn partial_cmp` — a PartialOrd impl, not a call site.
            if i > 0 && t[i - 1].text == "fn" {
                continue;
            }
            // Flag `partial_cmp(…).unwrap()` within the same statement.
            let unwrapped = t[i + 1..]
                .iter()
                .take(40)
                .take_while(|n| n.text != ";")
                .any(|n| n.text == "unwrap" || n.text == "expect");
            if unwrapped {
                out.push(raw(
                    rel,
                    tok.line,
                    "D3",
                    "float-order",
                    "partial_cmp().unwrap() panics on NaN and hides total-order intent; \
                     use f64::total_cmp"
                        .to_string(),
                ));
            }
        }
        if matches!(
            tok.text.as_str(),
            "sort_by" | "sort_unstable_by" | "min_by" | "max_by"
        ) && i + 1 < t.len()
            && t[i + 1].text == "("
        {
            // Scan the argument list for a partial_cmp-based comparator.
            let mut depth = 1usize;
            let mut j = i + 2;
            let mut found = false;
            while j < t.len() && depth > 0 {
                match t[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "partial_cmp" => found = true,
                    _ => {}
                }
                j += 1;
            }
            if found {
                out.push(raw(
                    rel,
                    tok.line,
                    "D3",
                    "float-order",
                    format!(
                        "{} with a partial_cmp comparator; use f64::total_cmp for a total, \
                         NaN-stable order",
                        tok.text
                    ),
                ));
            }
        }
    }
}

/// D4: bare truncating casts in byte-accounting paths.
fn d4(rel: &str, l: &Lexed, regions: &[(u32, u32)], out: &mut Vec<RawFinding>) {
    let t = &l.toks;
    for (i, tok) in t.iter().enumerate() {
        if tok.text != "as" || tok.kind != TokKind::Ident {
            continue;
        }
        let Some(target) = t.get(i + 1) else { continue };
        if !matches!(target.text.as_str(), "u8" | "u16" | "u32") {
            continue;
        }
        if in_test_region(regions, tok.line) {
            continue;
        }
        out.push(raw(
            rel,
            tok.line,
            "D4",
            "truncation",
            format!(
                "bare `as {}` silently truncates in a byte-accounting path; use \
                 `{}::try_from(..)` or add `// simlint: allow(truncation, <bound>)`",
                target.text, target.text
            ),
        ));
    }
}

/// P1–P3: PDES-readiness. Shared or interior-mutable state inside the sim
/// crates cannot be sharded onto worker threads without breaking (or
/// silently serializing) the `--jobs N` byte-compare, so it is rejected at
/// the source level. Test regions are exempt: test scaffolding never runs
/// inside a shard.
fn p_rules(rel: &str, l: &Lexed, regions: &[(u32, u32)], out: &mut Vec<RawFinding>) {
    let t = &l.toks;
    for (i, tok) in t.iter().enumerate() {
        if tok.kind != TokKind::Ident || in_test_region(regions, tok.line) {
            continue;
        }
        match tok.text.as_str() {
            "static" => {
                // `'static` lifetimes never reach here: the lexer drops
                // lifetime tokens entirely.
                if t.get(i + 1).is_some_and(|n| n.text == "mut") {
                    out.push(raw(
                        rel,
                        tok.line,
                        "P1",
                        "shared-state",
                        "`static mut` is process-global mutable state: a sharded engine \
                         cannot replicate or merge it deterministically"
                            .to_string(),
                    ));
                } else if t[i + 1..]
                    .iter()
                    .take(24)
                    .take_while(|n| n.text != ";" && n.text != "{")
                    .any(|n| n.text == "Mutex" || n.text == "RwLock")
                {
                    out.push(raw(
                        rel,
                        tok.line,
                        "P1",
                        "shared-state",
                        "a `Mutex`/`RwLock` static is cross-shard shared state: lock order \
                         would become a scheduling side channel under PDES sharding"
                            .to_string(),
                    ));
                }
            }
            "Rc" | "RefCell" | "Cell" | "UnsafeCell" => {
                out.push(raw(
                    rel,
                    tok.line,
                    "P2",
                    "interior-mut",
                    format!(
                        "{} is non-Send interior mutability: state it hides cannot move to \
                         a PDES worker shard; give the state one owner (or use channels)",
                        tok.text
                    ),
                ));
            }
            "thread_local" => {
                out.push(raw(
                    rel,
                    tok.line,
                    "P3",
                    "thread-local",
                    "thread_local! state differs per worker thread: under PDES sharding \
                     the same flow would read different state depending on shard placement"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
}

/// G1–G4: the layout guards (see the module docs). No pragma reaches them.
fn g_rules(rel: &str, src: &str, l: &Lexed, regions: &[(u32, u32)], out: &mut Vec<RawFinding>) {
    let mut hit = |line, rule, msg| {
        out.push(RawFinding {
            pragma: None,
            ..raw(rel, line, rule, "", msg)
        })
    };
    let engine = rel.starts_with("crates/dcsim/src/engine/");
    let g3_file = matches!(
        rel,
        "crates/transport/src/buffer.rs" | "crates/transport/src/tcp.rs"
    );
    let t = &l.toks;
    for (i, tok) in t.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let prev = if i > 0 { t[i - 1].text.as_str() } else { "" };
        let next = t.get(i + 1).map_or("", |n| n.text.as_str());
        let outside_tests = !in_test_region(regions, tok.line);
        // `(feature =` / `, feature =`: a cfg predicate naming a feature.
        let feature = tok.text == "feature" && matches!(prev, "(" | ",") && next == "=";
        if feature && engine && outside_tests {
            let msg = "the engine names a cargo feature; switch observers in their own modules";
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

/// The one file G4 lets hold a JSON reader.
const G4_READER: &str = "crates/telemetry/src/json.rs";

/// Everything the pipeline derives from one file: its item summary (for
/// the cross-file rules and the pragma filter) plus the per-file rule
/// findings.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Item skeleton (enums, refs, emits, literals, pragmas).
    pub items: FileItems,
    /// Raw findings from the per-file rules (D1–D4, P1–P3).
    pub findings: Vec<RawFinding>,
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
    if crate_of(rel) == Some("simlint") {
        // Self-lint: the linter's own sources hold no simulation state, so
        // only the generic determinism rules apply (its CLI legitimately
        // reads argv — with a pragma).
        d1(rel, &l, &mut findings);
        d2(rel, &l, &regions, &mut findings);
        d3(rel, &l, &mut findings);
    } else if in_sim_scope(rel) {
        d1(rel, &l, &mut findings);
        d3(rel, &l, &mut findings);
        d2(rel, &l, &regions, &mut findings);
        if D4_FILES.contains(&rel) {
            d4(rel, &l, &regions, &mut findings);
        }
        if crate_of(rel).is_some() {
            p_rules(rel, &l, &regions, &mut findings);
        }
    } else if crate_of(rel) == Some("bench") {
        d2_bench(rel, &l, &regions, &mut findings);
    }
    FileAnalysis { items, findings }
}

/// Runs the cross-file rules, applies the pragma filter, and reports stale
/// pragmas (L1).
pub fn finish(files: &[(String, FileAnalysis)], schema: Option<&Schema>) -> Vec<Finding> {
    let item_view: Vec<(String, FileItems)> = files
        .iter()
        .map(|(rel, a)| (rel.clone(), a.items.clone()))
        .collect();
    let mut all_raw: Vec<RawFinding> = files
        .iter()
        .flat_map(|(_, a)| a.findings.iter().cloned())
        .collect();
    all_raw.extend(graph::run(&item_view, schema));

    let index: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, (rel, _))| (rel.as_str(), i))
        .collect();
    let mut used: Vec<Vec<bool>> = files
        .iter()
        .map(|(_, a)| vec![false; a.items.pragmas.len()])
        .collect();

    let mut out = Vec::new();
    for f in all_raw {
        let mut suppressed = false;
        if let Some(pragma) = f.pragma {
            if let Some(&fi) = index.get(f.file.as_str()) {
                for (pi, (rule, line)) in files[fi].1.items.pragmas.iter().enumerate() {
                    if rule == pragma && (*line == f.line || *line + 1 == f.line) {
                        used[fi][pi] = true;
                        suppressed = true;
                    }
                }
            }
        }
        if !suppressed {
            out.push(Finding {
                file: f.file,
                line: f.line,
                rule: f.rule,
                msg: f.msg,
            });
        }
    }

    // L1: a pragma nothing needed is a lie waiting to hide a future
    // violation — code moved, the allowance stayed.
    for (fi, (rel, a)) in files.iter().enumerate() {
        for (pi, (rule, line)) in a.items.pragmas.iter().enumerate() {
            if !used[fi][pi] {
                out.push(Finding {
                    file: rel.clone(),
                    line: *line,
                    rule: "L1",
                    msg: format!(
                        "pragma `allow({rule}, …)` suppresses no finding on this or the next \
                         line; remove the stale allowance"
                    ),
                });
            }
        }
    }

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
