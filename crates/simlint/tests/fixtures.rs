//! Fixture tests for the ruleset: one violating and one conforming fixture
//! per rule, and the acceptance mutation from the item-graph rework (a
//! renamed registry key). The determinism and PDES
//! rules are clippy's; `ci/lint-fixture/` is their fixture.

use simlint::{lint_files, lint_files_with_schema, Finding};

fn lint(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_files(&owned)
}

fn lint_schema(files: &[(&str, &str)], schema: &str) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_files_with_schema(&owned, Some(schema)).expect("schema fixture parses")
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ------------------------------------------------------------ S1/S2

#[test]
fn s1_flags_undeclared_key_precisely() {
    // The acceptance mutation: rename one of two emit sites — exactly one
    // key-precise finding at the renamed call.
    let f = lint_schema(
        &[
            (
                "crates/dcsim/src/engine.rs",
                "fn seal(r: &mut Reg) { r.inc(\"timeouts\", 1); }\n",
            ),
            (
                "crates/transport/src/tcp.rs",
                "fn on_rto(r: &mut Reg) { r.inc(\"timeoutz\", 1); }\n",
            ),
        ],
        r#"{ "required_counters": ["timeouts"] }"#,
    );
    assert_eq!(rules(&f), ["S1"]);
    assert!(f[0].msg.contains("\"timeoutz\""), "{}", f[0].msg);
    assert_eq!(f[0].file, "crates/transport/src/tcp.rs");
    assert_eq!(f[0].line, 1);
}

#[test]
fn s1_prefix_emissions_match_declared_families_and_exacts() {
    let f = lint_schema(
        &[(
            "crates/dcsim/src/profile.rs",
            "fn finish(r: &mut Reg) {\n\
                 r.inc(&format!(\"event_sched/{}\", k.name()), 1);\n\
                 r.inc(&format!(\"rto_cause_{}\", c.as_str()), 1);\n\
                 r.observe(&precomputed_name, v);\n\
             }\n",
        )],
        r#"{
            "required_counter_prefixes": ["event_sched/"],
            "required_counters": ["rto_cause_color", "rto_cause_delay"]
        }"#,
    );
    assert!(
        f.is_empty(),
        "prefix-vs-prefix and prefix-vs-exact matches pass; \
         precomputed names are skipped: {f:?}"
    );
}

#[test]
fn s2_flags_declared_key_with_no_emission_site() {
    let f = lint_schema(
        &[(
            "crates/dcsim/src/engine.rs",
            "fn seal(r: &mut Reg) { r.inc(\"timeouts\", 1); }\n",
        )],
        "{\n    \"required_counters\": [\n        \"timeouts\",\n        \"dead_counter\"\n    ]\n}",
    );
    assert_eq!(rules(&f), ["S2"]);
    assert!(f[0].msg.contains("dead_counter"), "{}", f[0].msg);
    assert_eq!(f[0].file, "ci/metrics_schema.json");
    assert_eq!(f[0].line, 4, "points at the declaration inside the schema");
}

#[test]
fn s2_prefix_liveness_accepts_format_string_evidence() {
    let f = lint_schema(
        &[(
            "crates/dcsim/src/engine.rs",
            "fn names(n: u32, p: u32) -> String { format!(\"port_queue_bytes/n{n}/p{p}\") }\n",
        )],
        r#"{ "required_hist_prefixes": ["port_queue_bytes/"] }"#,
    );
    assert!(
        f.is_empty(),
        "interpolated literal keeps the family live: {f:?}"
    );
}

#[test]
fn s2_ignores_literals_in_test_regions_and_simlint() {
    let f = lint_schema(
        &[
            (
                // The linter's own rule tables must not mask dead keys.
                "crates/simlint/src/tables.rs",
                "const KNOWN: &str = \"dead_counter\";\n",
            ),
            (
                "crates/dcsim/src/engine.rs",
                "fn seal(r: &mut Reg) { r.inc(\"timeouts\", 1); }\n\
                 #[cfg(test)]\n\
                 mod tests { fn t() { let _ = \"dead_counter\"; } }\n",
            ),
        ],
        r#"{ "required_counters": ["timeouts", "dead_counter"] }"#,
    );
    assert_eq!(rules(&f), ["S2"], "{f:?}");
    assert!(f[0].msg.contains("dead_counter"), "{}", f[0].msg);
}

// ---------------------------------------------------------------- misc

#[test]
fn findings_format_as_file_line_rule() {
    let f = lint(&[(
        "crates/transport/src/tcp.rs",
        "use std::collections::BTreeMap;\n",
    )]);
    let s = f[0].to_string();
    assert!(
        s.starts_with("crates/transport/src/tcp.rs:1: G3: "),
        "diagnostic format is file:line: rule: msg, got {s}"
    );
}

#[test]
fn findings_are_sorted_and_deduped() {
    let f = lint(&[
        (
            "crates/transport/src/tcp.rs",
            "use std::collections::BTreeMap;\nfn skip_ws() {}\n",
        ),
        (
            "crates/transport/src/buffer.rs",
            "use std::collections::BTreeMap;\n",
        ),
    ]);
    assert_eq!(rules(&f), ["G3", "G3", "G4"]);
    assert_eq!(f[0].file, "crates/transport/src/buffer.rs");
    let mut sorted = f.clone();
    sorted.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    assert_eq!(f, sorted);
}

#[test]
fn malformed_schema_is_an_error_not_a_panic() {
    let owned = vec![(
        "crates/dcsim/src/engine.rs".to_string(),
        "fn run() {}\n".to_string(),
    )];
    let err = lint_files_with_schema(&owned, Some("{ not json")).unwrap_err();
    assert!(err.contains("ci/metrics_schema.json"), "{err}");
}

// ------------------------------------------------------------ G-rules

/// An engine file whose test helper sits at column 0 above a later
/// non-test item: a guard that stopped reading at the first
/// `#[cfg(test)]` would never see the feature gate below it.
const ENGINE_LATE_FEATURE: &str = "pub fn run() {}\n\
    #[cfg(test)]\n\
    fn helper() {}\n\
    #[cfg(feature = \"profile\")]\n\
    pub fn observe() {}\n";

#[test]
fn g1_flags_feature_gates_in_every_workspace_file_tests_included() {
    let f = lint(&[("crates/dcsim/src/engine/timers.rs", ENGINE_LATE_FEATURE)]);
    assert_eq!(rules(&f), ["G1"]);
    assert_eq!(f[0].line, 4);
    let f = lint(&[(
        "crates/dcsim/src/engine/wire.rs",
        "#[cfg(not(feature = \"ledger\"))]\nfn a() {}\n#![cfg_attr(feature = \"x\", allow(dead_code))]\n\
         fn b() -> bool { cfg!(feature = \"profile\") }\n",
    )]);
    assert_eq!(rules(&f), ["G1", "G1", "G1"]);
    // Outside the engine, and inside test modules and test files.
    let f = lint(&[
        (
            "crates/bench/src/runner.rs",
            "#[cfg(test)]\nmod tests {\n    #[cfg(feature = \"profile\")]\n    fn t() {}\n}\n",
        ),
        (
            "tests/alloc_budget.rs",
            "#![cfg(not(feature = \"ledger\"))]\n",
        ),
    ]);
    assert_eq!(rules(&f), ["G1", "G1"]);
    assert_eq!((f[0].line, f[1].line), (3, 1));
}

#[test]
fn g1_passes_other_cfgs_the_profile_alias_and_the_benchmark() {
    let f = lint(&[
        (
            "crates/dcsim/src/engine/results.rs",
            "#[cfg(test)]\nfn helper() {}\n#[cfg(debug_assertions)]\nfn audit() {}\n\
             #[cfg(all(debug_assertions, test))]\nmod audit {\n    fn u() {}\n}\n",
        ),
        (
            simlint::rules::G1_ALIAS,
            "pub(crate) const ATTACH_ALWAYS: bool = cfg!(feature = \"profile\");\n",
        ),
        (
            "benchmark/src/main.rs",
            "fn traced() -> bool { cfg!(feature = \"profile\") }\n",
        ),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn g2_caps_dcsim_sources_at_900_lines() {
    let long = "fn f() {}\n".repeat(901);
    let f = lint(&[("crates/dcsim/src/engine/mod.rs", &long)]);
    assert_eq!(rules(&f), ["G2"]);
    assert_eq!(f[0].line, 901);
    assert!(f[0].msg.starts_with("901 lines"), "{}", f[0].msg);
    let at_cap = "fn f() {}\n".repeat(900);
    let f = lint(&[
        ("crates/dcsim/src/engine/mod.rs", &at_cap),
        ("crates/netsim/src/switch.rs", &long),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn g3_keeps_btreemap_to_the_transport_test_modules() {
    let f = lint(&[(
        "crates/transport/src/buffer.rs",
        "use std::collections::BTreeMap;\npub struct RangeSet;\n",
    )]);
    assert_eq!(rules(&f), ["G3"]);
    let f = lint(&[(
        "crates/transport/src/tcp.rs",
        "#[cfg(not(test))]\nmod m {\n    use std::collections::BTreeMap;\n}\n\
         #[cfg(any(test, debug_assertions))]\nmod n {\n    use std::collections::BTreeMap;\n}\n",
    )]);
    assert_eq!(rules(&f), ["G3", "G3"]);
    let f = lint(&[
        (
            "crates/transport/src/buffer.rs",
            "pub struct RangeSet { v: Vec<u64> }\n// a BTreeMap once lived here\n\
             #[cfg(test)]\nmod reference {\n    use std::collections::BTreeMap;\n}\n",
        ),
        (
            "crates/transport/src/rto.rs",
            "use std::collections::BTreeMap;\n",
        ),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn g4_allows_one_json_reader() {
    let f = lint(&[(
        "crates/bench/src/lib.rs",
        "struct Parser;\nfn skip_ws() {}\nfn unescape() {}\nfn find_string_end() {}\n",
    )]);
    assert_eq!(rules(&f), ["G4", "G4", "G4", "G4"]);
    // The reader itself, the words inside strings and comments, and the
    // rule tables that name them all pass.
    let f = lint(&[
        (
            "crates/telemetry/src/json.rs",
            "struct Parser;\nfn skip_ws() {}\n",
        ),
        (
            "crates/simlint/src/rules.rs",
            "// fn skip_ws\nconst R: &str = \"fn unescape / struct Parser\";\n",
        ),
        ("tests/json.rs", "fn skip_ws() {}\n"),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

// ------------------------------------------------------- CLI JSON output

/// The CLI's `--format json` on a tree with findings is well-formed JSON
/// whose `count` matches its findings, each carrying file, line and rule.
#[test]
fn json_output_is_well_formed_and_counted() {
    use telemetry::json::{self, Value};
    #[expect(
        clippy::disallowed_methods,
        reason = "a scratch tree; its path is never output"
    )]
    let root = std::env::temp_dir().join(format!("simlint-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (rel, src) in [
        ("Cargo.toml", "[workspace]\n"),
        (
            "crates/transport/src/tcp.rs",
            "pub fn f() {}\nuse std::collections::BTreeMap;\n",
        ),
        ("crates/dcsim/src/engine/timers.rs", ENGINE_LATE_FEATURE),
    ] {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, src).unwrap();
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg(&root)
        .args(["--format", "json"])
        .output()
        .expect("spawn simlint");
    assert_eq!(out.status.code(), Some(1), "findings exit 1");
    let doc = json::parse(std::str::from_utf8(&out.stdout).unwrap()).expect("well-formed JSON");
    let findings = doc.get("findings").unwrap().items();
    assert_eq!(doc.get("count").and_then(Value::as_u64), Some(2));
    let got: Vec<(&str, u64, &str)> = findings
        .iter()
        .map(|f| {
            (
                f.get("file").and_then(Value::as_str).unwrap(),
                f.get("line").and_then(Value::as_u64).unwrap(),
                f.get("rule").and_then(Value::as_str).unwrap(),
            )
        })
        .collect();
    assert_eq!(
        got,
        [
            ("crates/dcsim/src/engine/timers.rs", 4, "G1"),
            ("crates/transport/src/tcp.rs", 2, "G3"),
        ]
    );
    let _ = std::fs::remove_dir_all(&root);
}
