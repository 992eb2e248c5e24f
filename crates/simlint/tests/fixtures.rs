//! Fixture tests for the ruleset: one violating and one conforming fixture
//! per rule (plus pragma handling where the rule is suppressable), the
//! acceptance mutations from the item-graph rework (delete an accounting
//! site, rename a registry key, add a `RefCell` to `dcsim`), and the lexer
//! traps (rule words inside strings, comments, and larger identifiers must
//! never fire).

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

// ---------------------------------------------------------------- D1

#[test]
fn d1_flags_hashmap_in_sim_crate() {
    let f = lint(&[(
        "crates/transport/src/tcp.rs",
        "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\n",
    )]);
    assert_eq!(rules(&f), ["D1", "D1"]);
    assert_eq!(f[0].line, 1);
    assert_eq!(f[1].line, 2);
    assert_eq!(f[0].file, "crates/transport/src/tcp.rs");
}

#[test]
fn d1_pragma_covers_same_and_next_line() {
    let f = lint(&[(
        "crates/workload/src/mix.rs",
        "use std::collections::HashSet; // simlint: allow(unordered, never iterated)\n\
         // simlint: allow(unordered, membership only)\n\
         struct S { s: HashSet<u32> }\n",
    )]);
    assert!(f.is_empty(), "pragmas suppress both forms: {f:?}");
}

#[test]
fn d1_wrong_pragma_rule_does_not_suppress() {
    let f = lint(&[(
        "crates/workload/src/mix.rs",
        "// simlint: allow(wallclock, wrong rule)\nuse std::collections::HashMap;\n",
    )]);
    // The mismatched pragma leaves D1 standing — and, suppressing nothing,
    // is itself stale (L1).
    assert_eq!(rules(&f), ["L1", "D1"]);
    assert_eq!(f[1].rule, "D1");
}

#[test]
fn d1_ignores_strings_comments_and_larger_identifiers() {
    let f = lint(&[(
        "crates/netsim/src/lib.rs",
        "// A HashMap would be wrong here.\n\
         /* HashSet too */\n\
         const DOC: &str = \"uses a HashMap internally\";\n\
         struct HashMapLike;\n\
         fn pseudo_hash_map() {}\n",
    )]);
    assert!(f.is_empty(), "no token is exactly HashMap/HashSet: {f:?}");
}

#[test]
fn d1_out_of_scope_crates_are_exempt() {
    let src = "use std::collections::HashMap;\n";
    let f = lint(&[
        ("crates/bench/src/runner.rs", src),
        ("crates/telemetry/src/trace.rs", src),
    ]);
    assert!(f.is_empty(), "bench/telemetry are out of D1 scope: {f:?}");
}

#[test]
fn simlint_lints_its_own_sources() {
    // Self-lint: the linter's sources are no longer a blanket exemption —
    // the determinism rules apply (its fixtures stay exempt via the tree
    // walk, not via path scoping in the rules).
    let f = lint(&[(
        "crates/simlint/src/newpass.rs",
        "use std::collections::HashMap;\n\
         fn t() { let w = std::time::Instant::now(); }\n",
    )]);
    assert_eq!(rules(&f), ["D1", "D2"]);

    // But the PDES-readiness rules do not: the linter is tooling, not
    // simulation state, and legitimately uses whatever std offers.
    let f = lint(&[(
        "crates/simlint/src/cachepass.rs",
        "use std::cell::RefCell;\nstruct C { inner: RefCell<u64> }\n",
    )]);
    assert!(f.is_empty(), "P-rules stop at the sim perimeter: {f:?}");
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_flags_wallclock_entropy_and_env() {
    let f = lint(&[(
        "crates/eventsim/src/time.rs",
        "fn now() { let t = std::time::Instant::now(); }\n\
         fn seed() -> u64 { rand::random() }\n\
         fn cfg() { let v = std::env::var(\"SEED\"); }\n",
    )]);
    assert_eq!(rules(&f), ["D2", "D2", "D2"]);
}

#[test]
fn d2_skips_cfg_test_modules_and_test_files() {
    let in_mod = "fn sim() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
             fn bench_wall() { let t = std::time::Instant::now(); }\n\
         }\n";
    let f = lint(&[
        ("crates/stats/src/report.rs", in_mod),
        (
            "crates/netsim/tests/io.rs",
            "fn t() { let d = std::env::temp_dir(); }\n",
        ),
    ]);
    assert!(f.is_empty(), "test regions are D2-exempt: {f:?}");
}

#[test]
fn d2_does_not_fire_on_identifier_substrings() {
    let f = lint(&[(
        "crates/dcsim/src/engine.rs",
        "/// Instantiates the engine for `cfg`.\n\
         fn instantiate() { let instant_replay = 3; }\n\
         struct Environment; // `env` the word, not std::env\n",
    )]);
    assert!(f.is_empty(), "token-exact matching required: {f:?}");
}

#[test]
fn d2_bench_flags_every_wallclock_read() {
    let wallclock = "fn t() { let w = std::time::Instant::now(); }\n";
    let f = lint(&[(
        "crates/bench/src/runner.rs",
        "fn t() { let w = std::time::Instant::now(); }\n\
         fn u() { let e = std::time::SystemTime::now(); }\n",
    )]);
    assert_eq!(rules(&f), ["D2", "D2"]);
    assert!(f[0].msg.contains("benchmark/"), "{}", f[0].msg);

    // No harness file is sanctioned, the provenance module included.
    let f = lint(&[("crates/bench/src/profiler.rs", wallclock)]);
    assert_eq!(rules(&f), ["D2"]);
}

#[test]
fn d2_bench_allows_env_threads_tests_and_pragmas() {
    let wallclock = "fn t() { let w = std::time::Instant::now(); }\n";
    let f = lint(&[
        // `benches/` is a test-only location.
        ("crates/bench/benches/micro.rs", wallclock),
        // env/thread reads stay legal in the harness (CLI + worker pool).
        (
            "crates/bench/src/runner.rs",
            "fn args() { let a = std::env::args(); }\n\
             fn pool() { let h = std::thread::current(); }\n",
        ),
        // Pragmas suppress the bench extension like everywhere else.
        (
            "crates/bench/src/plan.rs",
            "// simlint: allow(wallclock, progress display only)\n\
             fn eta() { let w = std::time::Instant::now(); }\n",
        ),
    ]);
    assert!(f.is_empty(), "sanctioned harness sites pass: {f:?}");
}

// ---------------------------------------------------------------- D3

#[test]
fn d3_flags_partial_cmp_unwrap_and_float_sorts() {
    let f = lint(&[(
        "crates/stats/src/summary.rs",
        "fn worst(v: &mut [f64]) {\n\
             v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
             let c = (1.0f64).partial_cmp(&2.0).expect(\"cmp\");\n\
         }\n",
    )]);
    assert_eq!(rules(&f), ["D3", "D3", "D3"]);
    // Line 2 carries both the sort_by finding and the comparator finding.
    assert_eq!(f[0].line, 2);
    assert_eq!(f[2].line, 3);
}

#[test]
fn d3_conforming_and_exempt_sites_pass() {
    let total_cmp = "fn order(v: &mut [f64]) { v.sort_by(f64::total_cmp); }\n";
    let partial_ord_impl =
        "impl PartialOrd for T { fn partial_cmp(&self, o: &T) -> Option<Ordering> { None } }\n";
    let exempt = "fn pct(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
    let f = lint(&[
        ("crates/stats/src/summary.rs", total_cmp),
        ("crates/eventsim/src/queue.rs", partial_ord_impl),
        ("crates/stats/src/percentile.rs", exempt),
    ]);
    assert!(
        f.is_empty(),
        "total_cmp, trait impls, and the percentile module pass: {f:?}"
    );
}

// ---------------------------------------------------------------- D4

#[test]
fn d4_flags_bare_truncation_only_in_byte_accounting_files() {
    let src = "fn wire(len: usize) -> u32 { len as u32 }\n";
    let f = lint(&[
        ("crates/netsim/src/packet.rs", src),
        ("crates/netsim/src/topology.rs", src), // not a D4 file
        ("crates/transport/src/tcp.rs", src),   // not a D4 file
    ]);
    assert_eq!(rules(&f), ["D4"]);
    assert_eq!(f[0].file, "crates/netsim/src/packet.rs");
}

#[test]
fn d4_widening_casts_and_pragmas_pass() {
    let f = lint(&[(
        "crates/netsim/src/switch.rs",
        "fn a(x: u32) -> u64 { x as u64 }\n\
         // simlint: allow(truncation, sack is capped at 8 blocks)\n\
         fn b(n: usize) -> u32 { n as u32 }\n\
         #[cfg(test)]\n\
         mod tests { fn c(n: usize) -> u16 { n as u16 } }\n",
    )]);
    assert!(
        f.is_empty(),
        "widening, pragma'd, and test casts pass: {f:?}"
    );
}

// ------------------------------------------------------------ E1: accounting

const EVENT_RS: &str = "crates/telemetry/src/event.rs";

/// A complete DropWhy fixture: variants, render arms, parse arms.
const DROPWHY_FULL: &str = r#"pub enum DropWhy {
    /// Dropped by the color gate.
    #[default]
    Color,
    Wire,
}
impl DropWhy {
    pub fn as_str(self) -> &'static str {
        match self {
            DropWhy::Color => "color",
            DropWhy::Wire => "wire",
        }
    }
    pub fn parse(s: &str) -> Option<DropWhy> {
        Some(match s {
            "color" => DropWhy::Color,
            "wire" => DropWhy::Wire,
            _ => return None,
        })
    }
}
"#;

/// An accounting file covering both DropWhy variants.
const LEDGER_FULL: &str = "fn acct(a: &mut AggregateStats, w: DropWhy) {\n\
     match w { DropWhy::Color => a.c += 1, DropWhy::Wire => a.w += 1, }\n\
 }\n";

#[test]
fn e1_anchor_mode_flags_unaccounted_variant() {
    let f = lint(&[
        (EVENT_RS, DROPWHY_FULL),
        (
            "crates/dcsim/src/ledger.rs",
            "fn acct(a: &mut AggregateStats, w: DropWhy) { if let DropWhy::Color = w { a.c += 1; } }\n",
        ),
    ]);
    assert_eq!(rules(&f), ["E1"]);
    assert!(f[0].msg.contains("DropWhy::Wire"), "{}", f[0].msg);
    assert_eq!(f[0].file, EVENT_RS);
    assert_eq!(f[0].line, 5, "reported at the variant's declaration line");
}

#[test]
fn e1_reference_without_aggregate_stats_does_not_count() {
    let f = lint(&[
        (EVENT_RS, DROPWHY_FULL),
        (
            // Mentions both variants but never AggregateStats: not an
            // accounting site, so both variants are unaccounted.
            "crates/dcsim/src/trace.rs",
            "fn show() { let _ = (DropWhy::Color, DropWhy::Wire); }\n",
        ),
    ]);
    assert_eq!(rules(&f), ["E1", "E1"]);
}

#[test]
fn e1_fully_accounted_enum_passes() {
    let f = lint(&[
        (EVENT_RS, DROPWHY_FULL),
        ("crates/dcsim/src/ledger.rs", LEDGER_FULL),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn e1_all_const_mode_flags_variant_missing_from_all() {
    // The acceptance mutation: delete one RtoCause accounting site (its ALL
    // entry) — exactly one variant-precise finding.
    let f = lint(&[(
        EVENT_RS,
        r#"pub enum RtoCause {
    Color,
    Delay,
    Unknown,
}
impl RtoCause {
    pub const ALL: [RtoCause; 2] = [RtoCause::Color, RtoCause::Delay];
    pub fn as_str(self) -> &'static str {
        match self {
            RtoCause::Color => "color",
            RtoCause::Delay => "delay",
            RtoCause::Unknown => "unknown",
        }
    }
    pub fn parse(s: &str) -> Option<RtoCause> {
        Some(match s {
            "color" => RtoCause::Color,
            "delay" => RtoCause::Delay,
            "unknown" => RtoCause::Unknown,
            _ => return None,
        })
    }
}
"#,
    )]);
    assert_eq!(rules(&f), ["E1"]);
    assert!(f[0].msg.contains("RtoCause::Unknown"), "{}", f[0].msg);
    assert!(f[0].msg.contains("ALL"), "{}", f[0].msg);
    assert_eq!(f[0].line, 4, "reported at the variant's declaration line");
}

/// A complete latency-ledger Phase fixture: variants, `ALL` table, render
/// and parse arms — the shape the conservation invariant depends on.
const PHASE_FULL: &str = r#"pub enum Phase {
    Serialization,
    SwitchQueue,
    RtoStall,
}
impl Phase {
    pub const ALL: [Phase; 3] = [Phase::Serialization, Phase::SwitchQueue, Phase::RtoStall];
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Serialization => "serialization",
            Phase::SwitchQueue => "switch_queue",
            Phase::RtoStall => "rto_stall",
        }
    }
    pub fn parse(s: &str) -> Option<Phase> {
        Some(match s {
            "serialization" => Phase::Serialization,
            "switch_queue" => Phase::SwitchQueue,
            "rto_stall" => Phase::RtoStall,
            _ => return None,
        })
    }
}
"#;

#[test]
fn e1_phase_missing_from_all_is_one_precise_finding() {
    // The seeded mutation: delete one Phase accounting arm (its ALL entry).
    // Ledger attribution and the per-scheme hists iterate ALL, so the
    // deleted phase would silently stop being accounted — exactly one
    // variant-precise E1 must fire.
    let mutated = PHASE_FULL.replace("Phase::SwitchQueue, ", "");
    let f = lint(&[(EVENT_RS, mutated.as_str())]);
    assert_eq!(rules(&f), ["E1"]);
    assert!(f[0].msg.contains("Phase::SwitchQueue"), "{}", f[0].msg);
    assert!(f[0].msg.contains("ALL"), "{}", f[0].msg);
    assert_eq!(f[0].line, 3, "reported at the variant's declaration line");

    // The unmutated fixture passes clean.
    let f = lint(&[(EVENT_RS, PHASE_FULL)]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn e3_phase_hists_must_be_declared_in_the_spans_section() {
    // Phase implies the per-scheme `span_phase_ns/…` hist family; a schema
    // without the spans declaration gets one E3 per variant.
    let f = lint_schema(&[(EVENT_RS, PHASE_FULL)], r#"{ "required_counters": [] }"#);
    assert_eq!(rules(&f), ["E3", "E3", "E3"]);
    assert!(f[0].msg.contains("span_phase_ns/"), "{}", f[0].msg);

    // The nested spans section's prefix declaration covers every variant
    // (the emitting file keeps the declared family alive for S2).
    let f = lint_schema(
        &[
            (EVENT_RS, PHASE_FULL),
            (
                "crates/telemetry/src/spans.rs",
                "fn acct(r: &mut Reg, scheme: &str, p: Phase, ns: u64) {\n\
                     r.observe(&format!(\"span_phase_ns/{scheme}/{}\", p.as_str()), ns);\n\
                 }\n",
            ),
        ],
        r#"{ "spans": { "required_hist_prefixes": ["span_phase_ns/"] } }"#,
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn e1_external_refs_mode_requires_non_test_use() {
    let faultkind = r#"pub enum FaultKind {
    LinkDown,
    LinkFlap,
}
impl FaultKind {
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::LinkDown => "link_down",
            FaultKind::LinkFlap => "link_flap",
        }
    }
    pub fn parse(s: &str) -> Option<FaultKind> {
        Some(match s {
            "link_down" => FaultKind::LinkDown,
            "link_flap" => FaultKind::LinkFlap,
            _ => return None,
        })
    }
}
"#;
    // LinkFlap referenced only inside a test module elsewhere: unaccounted.
    let f = lint(&[
        (EVENT_RS, faultkind),
        (
            "crates/faults/src/lib.rs",
            "fn inject() -> FaultKind { FaultKind::LinkDown }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { let _ = FaultKind::LinkFlap; } }\n",
        ),
    ]);
    assert_eq!(rules(&f), ["E1"]);
    assert!(f[0].msg.contains("FaultKind::LinkFlap"), "{}", f[0].msg);

    // A non-test reference outside the defining file satisfies E1.
    let f = lint(&[
        (EVENT_RS, faultkind),
        (
            "crates/faults/src/lib.rs",
            "fn inject(i: u64) -> FaultKind {\n\
                 if i == 0 { FaultKind::LinkDown } else { FaultKind::LinkFlap }\n\
             }\n",
        ),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn e1_pragma_on_variant_line_suppresses() {
    let dropwhy = DROPWHY_FULL.replace(
        "    Wire,",
        "    // simlint: allow(accounting, counted via the wire ledger)\n    Wire,",
    );
    let f = lint(&[
        (EVENT_RS, dropwhy.as_str()),
        (
            "crates/dcsim/src/ledger.rs",
            "fn acct(a: &mut AggregateStats, w: DropWhy) { if let DropWhy::Color = w { a.c += 1; } }\n",
        ),
    ]);
    assert!(f.is_empty(), "pragma'd variant is exempt: {f:?}");
}

#[test]
fn e_rules_are_silent_on_partial_trees() {
    // Fixture sets without the defining files (like most of this file)
    // must not fabricate findings.
    let f = lint(&[("crates/dcsim/src/engine.rs", "fn run() {}\n")]);
    assert!(f.is_empty(), "{f:?}");
}

// ------------------------------------------------------------ E2: render

#[test]
fn e2_flags_variant_without_render_arm() {
    let f = lint(&[
        (
            EVENT_RS,
            r#"pub enum DropWhy {
    Color,
    Wire,
}
impl DropWhy {
    pub fn as_str(self) -> &'static str {
        match self {
            DropWhy::Color => "color",
            _ => "other",
        }
    }
}
"#,
        ),
        ("crates/dcsim/src/ledger.rs", LEDGER_FULL),
    ]);
    assert_eq!(rules(&f), ["E2"]);
    assert!(f[0].msg.contains("DropWhy::Wire"), "{}", f[0].msg);
    assert!(f[0].msg.contains("render"), "{}", f[0].msg);
}

#[test]
fn e2_flags_rendered_tag_that_never_parses_back() {
    // `parse` exists but its wildcard hides the missing "wire" arm.
    let dropwhy = DROPWHY_FULL.replace("            \"wire\" => DropWhy::Wire,\n", "");
    let f = lint(&[
        (EVENT_RS, dropwhy.as_str()),
        ("crates/dcsim/src/ledger.rs", LEDGER_FULL),
    ]);
    assert_eq!(rules(&f), ["E2"]);
    assert!(f[0].msg.contains("\"wire\""), "{}", f[0].msg);
}

#[test]
fn e2_enum_without_any_parser_skips_roundtrip() {
    // EvKind-style enums render (for metric names) but never parse; only
    // arm coverage is required.
    let f = lint(&[(
        "crates/dcsim/src/profile.rs",
        r#"pub enum EvKind {
    FlowStart,
    PktArrive,
}
impl EvKind {
    pub const ALL: [EvKind; 2] = [EvKind::FlowStart, EvKind::PktArrive];
    pub fn name(self) -> &'static str {
        match self {
            EvKind::FlowStart => "flow_start",
            EvKind::PktArrive => "pkt_arrive",
        }
    }
}
"#,
    )]);
    assert!(f.is_empty(), "{f:?}");
}

// ------------------------------------------------------------ E3 + S1/S2

/// Schema used by the drift tests. `drops_wire` is deliberately missing.
const SCHEMA_MISSING_WIRE: &str = r#"{
    "required_counters": ["drops_color"]
}"#;

const SCHEMA_BOTH: &str = r#"{
    "required_counters": ["drops_color", "drops_wire"]
}"#;

/// Accounting file that also emits the per-variant counters (keeps the
/// declared keys live for S2).
const LEDGER_EMITTING: &str = "fn acct(a: &mut AggregateStats, r: &mut Reg, w: DropWhy) {\n\
     match w { DropWhy::Color => {}, DropWhy::Wire => {}, }\n\
     r.inc(&format!(\"drops_{}\", w.as_str()), 1);\n\
 }\n";

#[test]
fn e3_flags_variant_counter_missing_from_schema() {
    let f = lint_schema(
        &[
            (EVENT_RS, DROPWHY_FULL),
            ("crates/dcsim/src/ledger.rs", LEDGER_EMITTING),
        ],
        SCHEMA_MISSING_WIRE,
    );
    assert_eq!(rules(&f), ["E3"]);
    assert!(f[0].msg.contains("drops_wire"), "{}", f[0].msg);
    assert_eq!(f[0].file, EVENT_RS);
}

#[test]
fn e3_declared_counters_pass() {
    let f = lint_schema(
        &[
            (EVENT_RS, DROPWHY_FULL),
            ("crates/dcsim/src/ledger.rs", LEDGER_EMITTING),
        ],
        SCHEMA_BOTH,
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn e3_pragma_on_variant_line_suppresses() {
    let dropwhy = DROPWHY_FULL.replace(
        "    Wire,",
        "    // simlint: allow(schema-key, wire drops are debug-only)\n    Wire,",
    );
    let f = lint_schema(
        &[
            (EVENT_RS, dropwhy.as_str()),
            ("crates/dcsim/src/ledger.rs", LEDGER_EMITTING),
        ],
        SCHEMA_MISSING_WIRE,
    );
    assert!(f.is_empty(), "{f:?}");
}

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
fn s1_pragma_suppresses_at_the_emit_site() {
    let f = lint_schema(
        &[(
            "crates/serve/src/lib.rs",
            "fn account(r: &mut Reg) {\n\
                 // simlint: allow(undeclared-key, experimental counter)\n\
                 r.inc(\"serve_scratch\", 1);\n\
             }\n",
        )],
        r#"{ "required_counters": [] }"#,
    );
    assert!(f.is_empty(), "{f:?}");
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

// ------------------------------------------------------------ P-rules

#[test]
fn p1_flags_static_mut_and_locked_statics() {
    let f = lint(&[(
        "crates/dcsim/src/engine.rs",
        "static mut EVENTS: u64 = 0;\n\
         static REGISTRY: Mutex<Vec<u64>> = Mutex::new(Vec::new());\n",
    )]);
    assert_eq!(rules(&f), ["P1", "P1"]);
}

#[test]
fn p1_plain_statics_and_static_lifetimes_pass() {
    let f = lint(&[(
        "crates/dcsim/src/profile.rs",
        "static N_KINDS: usize = 10;\n\
         fn name() -> &'static str { \"flow_start\" }\n",
    )]);
    assert!(f.is_empty(), "immutable statics and lifetimes pass: {f:?}");
}

#[test]
fn p2_flags_interior_mutability_in_sim_crates() {
    // The acceptance mutation: add one RefCell field to dcsim — exactly one
    // finding at that line.
    let f = lint(&[(
        "crates/dcsim/src/engine.rs",
        "struct Engine { scratch: RefCell<Vec<u64>> }\n",
    )]);
    assert_eq!(rules(&f), ["P2"]);
    assert!(f[0].msg.contains("RefCell"), "{}", f[0].msg);
    assert_eq!(f[0].line, 1);

    let f = lint(&[(
        "crates/netsim/src/link.rs",
        "fn share(x: Rc<u64>, c: Cell<u8>, u: UnsafeCell<u8>) {}\n",
    )]);
    assert_eq!(rules(&f), ["P2", "P2", "P2"]);
}

#[test]
fn p3_flags_thread_local_state() {
    let f = lint(&[(
        "crates/eventsim/src/queue.rs",
        "thread_local! { static SCRATCH: u64 = 0; }\n",
    )]);
    assert_eq!(rules(&f), ["P3"]);
}

#[test]
fn p_rules_skip_tests_telemetry_and_root_sources() {
    let f = lint(&[
        (
            // Test scaffolding never runs inside a shard.
            "crates/dcsim/src/engine.rs",
            "fn run() {}\n\
             #[cfg(test)]\n\
             mod tests { use std::cell::RefCell; fn t(c: RefCell<u64>) {} }\n",
        ),
        (
            // telemetry is output-only: sharing there is a perf question,
            // not a determinism one.
            "crates/telemetry/src/trace.rs",
            "fn buf() -> Rc<RefCell<Vec<u8>>> { todo!() }\n",
        ),
        (
            // The root package's sources orchestrate runs, they are not
            // engine state.
            "src/runner.rs",
            "static JOBS: Mutex<u64> = Mutex::new(1);\n",
        ),
    ]);
    assert!(
        f.is_empty(),
        "P-rules stop at the sim-crate perimeter: {f:?}"
    );
}

#[test]
fn p_rule_pragmas_suppress() {
    let f = lint(&[(
        "crates/dcsim/src/engine.rs",
        "// simlint: allow(interior-mut, single-shard scratch, drained per event)\n\
         struct Engine { scratch: RefCell<Vec<u64>> }\n\
         // simlint: allow(thread-local, replaced in the sharding refactor)\n\
         thread_local! { static SCRATCH: u64 = 0; }\n",
    )]);
    assert!(f.is_empty(), "{f:?}");
}

// ------------------------------------------------------------ L1: stale pragmas

#[test]
fn l1_flags_pragma_that_suppresses_nothing() {
    let f = lint(&[(
        "crates/netsim/src/switch.rs",
        "// simlint: allow(unordered, this map was removed last sprint)\n\
         fn forward() {}\n",
    )]);
    assert_eq!(rules(&f), ["L1"]);
    assert_eq!(f[0].line, 1);
    assert!(f[0].msg.contains("allow(unordered"), "{}", f[0].msg);
}

#[test]
fn l1_fires_even_where_the_rule_never_runs() {
    // A pragma in an out-of-scope file can never suppress anything: stale
    // by construction.
    let f = lint(&[(
        "crates/telemetry/src/trace.rs",
        "// simlint: allow(unordered, telemetry is exempt anyway)\n\
         use std::collections::HashMap;\n",
    )]);
    assert_eq!(rules(&f), ["L1"]);
}

#[test]
fn l1_used_pragmas_do_not_fire() {
    // One pragma suppressing a real finding, exercised alongside a stale
    // one in the same file: only the stale one is reported.
    let f = lint(&[(
        "crates/workload/src/mix.rs",
        "// simlint: allow(unordered, membership only)\n\
         use std::collections::HashSet;\n\
         // simlint: allow(wallclock, nothing here reads clocks)\n\
         fn gen() {}\n",
    )]);
    assert_eq!(rules(&f), ["L1"]);
    assert_eq!(f[0].line, 3);
}

// ---------------------------------------------------------------- misc

#[test]
fn findings_format_as_file_line_rule() {
    let f = lint(&[(
        "crates/netsim/src/switch.rs",
        "use std::collections::HashMap;\n",
    )]);
    let s = f[0].to_string();
    assert!(
        s.starts_with("crates/netsim/src/switch.rs:1: D1: "),
        "diagnostic format is file:line: rule: msg, got {s}"
    );
}

#[test]
fn findings_are_sorted_and_deduped() {
    let f = lint(&[
        (
            "crates/workload/src/mix.rs",
            "use std::collections::HashMap;\nfn t() { let i = std::time::Instant::now(); }\n",
        ),
        (
            "crates/eventsim/src/rng.rs",
            "use std::collections::HashSet;\n",
        ),
    ]);
    assert_eq!(rules(&f), ["D1", "D1", "D2"]);
    assert_eq!(f[0].file, "crates/eventsim/src/rng.rs");
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

// ------------------------------------------------------ serve crate scope

/// The serve crate generates flows that feed the engine, so it sits inside
/// the determinism perimeter: request streams built off a hash container or
/// the wall clock would break the byte-identical `--jobs` contract.
#[test]
fn serve_crate_is_in_the_determinism_scan_set() {
    let f = lint(&[(
        "crates/serve/src/lib.rs",
        "use std::collections::HashMap;\n\
         fn arrivals() { let t = std::time::SystemTime::now(); }\n",
    )]);
    assert_eq!(rules(&f), ["D1", "D2"]);

    // The real implementation's ingredients pass clean: BTreeMap keying and
    // SimRng-driven sampling.
    let f = lint(&[(
        "crates/serve/src/lib.rs",
        "use std::collections::BTreeMap;\n\
         fn gap(rng: &mut SimRng, mean: f64) -> f64 { rng.gen_exponential(mean) }\n",
    )]);
    assert!(
        f.is_empty(),
        "serve's real ingredients are lint-clean: {f:?}"
    );
}

// ------------------------------------------------- event-queue hot path

/// The wheel-plus-far-heap event queue is squarely inside the determinism
/// perimeter: a hash container or a wall-clock read in its hot path would
/// be flagged, while the real implementation's ingredients (a slot table,
/// an index-linked node arena, a `BinaryHeap`, bit tricks) pass clean.
#[test]
fn queue_module_hot_path_is_lint_covered() {
    let f = lint(&[(
        "crates/eventsim/src/queue.rs",
        "use std::collections::HashMap;\n\
         struct Q { slots: HashMap<u64, Vec<u64>> }\n\
         fn lag() { let t = std::time::Instant::now(); }\n",
    )]);
    assert_eq!(rules(&f), ["D1", "D1", "D2"]);

    let f = lint(&[(
        "crates/eventsim/src/queue.rs",
        "use std::collections::BinaryHeap;\n\
         struct Node { seq: u64, next: u32, tail: u32 }\n\
         struct Far { at: u64, seq: u64 }\n\
         struct Q { slots: Box<[u32; 65536]>, nodes: Vec<Node>, l0: Vec<u64>, far: BinaryHeap<Far> }\n\
         fn slot_key(slot: usize, top: u64) -> u64 {\n\
             top + ((slot as u64).wrapping_sub(top) & 65535)\n\
         }\n",
    )]);
    assert!(f.is_empty(), "the wheel's hot path is lint-clean: {f:?}");
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
fn g1_flags_feature_gates_in_the_engine_outside_test_modules() {
    let f = lint(&[("crates/dcsim/src/engine/timers.rs", ENGINE_LATE_FEATURE)]);
    assert_eq!(rules(&f), ["G1"]);
    assert_eq!(f[0].line, 4);
    let f = lint(&[(
        "crates/dcsim/src/engine/wire.rs",
        "#[cfg(not(feature = \"ledger\"))]\nfn a() {}\n#![cfg_attr(feature = \"x\", allow(dead_code))]\n\
         fn b() -> bool { cfg!(feature = \"profile\") }\n",
    )]);
    assert_eq!(rules(&f), ["G1", "G1", "G1"]);
    // No pragma reaches it.
    let f = lint(&[(
        "crates/dcsim/src/engine/mod.rs",
        "// simlint: allow(G1, observer)\n#[cfg(feature = \"profile\")]\nfn a() {}\n",
    )]);
    assert_eq!(rules(&f), ["L1", "G1"]);
    // Modules that also compile outside tests are not test modules.
    let f = lint(&[(
        "crates/dcsim/src/engine/mod.rs",
        "#[cfg(any(test, feature = \"profile\"))]\nmod observe {\n    fn a() {}\n}\n\
         #[cfg(not(test))]\nmod live {\n    #[cfg(feature = \"ledger\")]\n    fn b() {}\n}\n",
    )]);
    assert_eq!(rules(&f), ["G1", "G1"]);
    assert_eq!((f[0].line, f[1].line), (1, 7));
}

#[test]
fn g1_passes_test_modules_other_cfgs_and_the_observer_modules() {
    let f = lint(&[
        (
            "crates/dcsim/src/engine/results.rs",
            "#[cfg(test)]\nfn helper() {}\n#[cfg(debug_assertions)]\nfn audit() {}\n\
             #[cfg(test)]\nmod tests {\n    #[cfg(feature = \"profile\")]\n    fn t() {}\n}\n\
             #[cfg(all(debug_assertions, test))]\nmod audit {\n    #[cfg(feature = \"ledger\")]\n    fn u() {}\n}\n",
        ),
        (
            "crates/dcsim/src/profile.rs",
            "#[cfg(feature = \"profile\")]\npub struct EngineProf;\n",
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
         #[cfg(any(test, feature = \"ledger\"))]\nmod n {\n    use std::collections::BTreeMap;\n}\n",
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
    let root = std::env::temp_dir().join(format!("simlint-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (rel, src) in [
        ("Cargo.toml", "[workspace]\n"),
        (
            "crates/netsim/src/lib.rs",
            "pub fn f() {}\nuse std::collections::HashMap;\n",
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
            ("crates/netsim/src/lib.rs", 2, "D1"),
        ]
    );
    let _ = std::fs::remove_dir_all(&root);
}
