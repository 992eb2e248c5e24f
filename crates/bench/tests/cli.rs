//! End-to-end tests for the harness binaries' error paths and exit codes:
//! `trace_inspect --metrics` must fail loudly (exit 2, positional
//! diagnostic) on malformed or truncated registry exports, `benchcmp`
//! must diff two exports, print exactly the counts that moved, and refuse
//! provenance mismatches without `--force`, and an experiment binary must
//! refuse `--full --quick`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tmp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tlt-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp fixture");
    path
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A minimal well-formed `tlt-metrics/v1` export.
fn metrics_json() -> String {
    let mut reg = telemetry::Registry::new();
    reg.inc("data_pkts_sent", 128);
    reg.gauge_max("queue_peak_bytes", 9000);
    reg.observe("fct_us", 250);
    reg.to_json()
}

#[test]
fn trace_inspect_rejects_malformed_metrics_with_diagnostic() {
    let bin = env!("CARGO_BIN_EXE_trace_inspect");

    // Outright garbage: exit 2 and a parse diagnostic naming the file.
    let garbage = tmp("garbage.json", "this is not json {{{");
    let out = run(bin, &["--metrics", garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("cannot parse"), "diagnostic missing: {err}");
    assert!(err.contains("garbage.json"), "file name missing: {err}");

    // A truncated export (simulating a crashed producer) also exits 2 —
    // every prefix of a valid document must fail cleanly, never render a
    // partial registry as if it were complete.
    let good = metrics_json();
    let truncated = tmp("truncated.json", &good[..good.len() / 2]);
    let out = run(bin, &["--metrics", truncated.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid tlt-metrics JSON"));

    // A cut directly after a backslash inside the first key: exit 2 with
    // the positional diagnostic, not a panic.
    let escape = tmp("escape-cut.json", "{\"schema\\");
    let out = run(bin, &["--metrics", escape.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("at byte"), "{}", stderr(&out));

    // The intact export still renders and exits 0.
    let intact = tmp("intact.json", &good);
    let out = run(bin, &["--metrics", intact.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("data_pkts_sent"));

    for p in [garbage, truncated, escape, intact] {
        let _ = std::fs::remove_file(p);
    }
}

/// A minimal well-formed `tlt-spans/v1` export: one flow's phase breakdown
/// plus one request span so every section of the document is exercised.
fn spans_json() -> String {
    let mut rep = telemetry::SpanReport::new();
    let mut phases = telemetry::PhaseTimes::default();
    phases.add(telemetry::Phase::Serialization, 64_000);
    phases.add(telemetry::Phase::SwitchQueue, 21_000);
    phases.add(telemetry::Phase::RtoStall, 4_000_000);
    rep.record_flow("dctcp", &phases, phases.total(), 0);
    rep.record_violation("dctcp", telemetry::Phase::RtoStall);
    rep.push_request(telemetry::RequestSpan {
        scheme: "dctcp".to_string(),
        seed: 1,
        req: 0,
        start_ns: 0,
        latency_ns: phases.total(),
        dominant: telemetry::Phase::RtoStall,
        flows: vec![telemetry::FlowSpan {
            id: 0,
            role: "query".to_string(),
            start_ns: 0,
            end_ns: phases.total(),
            phases,
            stalls: Vec::new(),
        }],
    });
    rep.to_json()
}

#[test]
fn trace_inspect_rejects_malformed_spans_with_diagnostic() {
    let bin = env!("CARGO_BIN_EXE_trace_inspect");

    // Outright garbage: exit 2 and a parse diagnostic naming the file.
    let garbage = tmp("spans-garbage.json", "not even json [");
    let out = run(bin, &["--spans", garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("cannot parse"), "diagnostic missing: {err}");
    assert!(
        err.contains("spans-garbage.json"),
        "file name missing: {err}"
    );

    // Every truncation of a valid document must fail cleanly with the
    // positional schema diagnostic, never render a partial span report.
    let good = spans_json();
    let truncated = tmp("spans-truncated.json", &good[..good.len() * 2 / 3]);
    let out = run(bin, &["--spans", truncated.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid tlt-spans JSON"));

    // A document with the wrong schema tag is rejected, not misrendered.
    let wrong = tmp("spans-wrong-schema.json", &metrics_json());
    let out = run(bin, &["--spans", wrong.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid tlt-spans JSON"));

    // Missing file: exit 2 with an open diagnostic.
    let out = run(bin, &["--spans", "/nonexistent/spans.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot open"));

    // The intact export renders the phase table and exits 0.
    let intact = tmp("spans-intact.json", &good);
    let out = run(bin, &["--spans", intact.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = stdout(&out);
    assert!(body.contains("rto_stall"), "phase table missing: {body}");
    assert!(body.contains("### spans"), "section header missing: {body}");

    for p in [garbage, truncated, wrong, intact] {
        let _ = std::fs::remove_file(p);
    }
}

/// A `tlt-metrics/v1` export stamped like the harness stamps its own.
fn stamped_metrics(sent: u64, scale: &str) -> String {
    let mut reg = telemetry::Registry::new();
    reg.inc("data_pkts_sent", sent);
    reg.inc("timeouts", 3);
    reg.observe("fct_us", 250);
    reg.set_meta("build_profile", "release");
    reg.set_meta("scale", scale);
    reg.set_meta("seeds", "1");
    reg.to_json()
}

/// No scale is both quick and full: the pair exits 2 before anything runs.
#[test]
fn full_with_quick_exits_2() {
    let out = run(
        env!("CARGO_BIN_EXE_fig02_fixed_rto"),
        &["--full", "--quick"],
    );
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("--full and --quick"),
        "{}",
        stderr(&out)
    );
    assert!(stdout(&out).is_empty());
}

#[test]
fn benchcmp_diffs_counts_and_refuses() {
    let bin = env!("CARGO_BIN_EXE_benchcmp");
    let good = stamped_metrics(128, "quick");
    let old = tmp("cmp-old.json", &good);
    let moved = tmp("cmp-moved.json", &stamped_metrics(129, "quick"));
    let full = tmp("cmp-full.json", &stamped_metrics(128, "full"));
    let cut = tmp("cmp-cut.json", &good[..good.len() / 2]);
    let [old_p, moved_p, full_p, cut_p] = [&old, &moved, &full, &cut].map(|p| p.to_str().unwrap());

    // An identical pair: exit 0, no changed row.
    let out = run(bin, &[old_p, old_p]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = stdout(&out);
    assert!(body.contains("5 keys compared, 0 changed"), "{body}");
    assert!(!body.contains("counter/"), "{body}");

    // One moved counter: exactly one row, and still exit 0 (informational).
    let out = run(bin, &[old_p, moved_p]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = stdout(&out);
    let rows: Vec<_> = body.lines().filter(|l| l.contains("counter/")).collect();
    assert_eq!(rows.len(), 1, "{body}");
    assert!(rows[0].starts_with("counter/data_pkts_sent"), "{body}");
    assert!(body.contains("5 keys compared, 1 changed"), "{body}");

    // --json carries the same verdict-free summary.
    let out = run(bin, &["--json", old_p, moved_p]);
    assert_eq!(out.status.code(), Some(0));
    let js = stdout(&out);
    assert!(js.contains("\"schema\": \"tlt-benchcmp/v2\""), "{js}");
    assert!(js.contains("\"changed\": 1,"), "{js}");
    for gone in ["threshold_pct", "regression", "improvements"] {
        assert!(!js.contains(gone), "{gone} in {js}");
    }

    // A scale mismatch: refuse without --force, compare with it.
    let out = run(bin, &[old_p, full_p]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("scale mismatch"));
    let out = run(bin, &["--force", old_p, full_p]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));

    // A truncated file: exit 2 with the telemetry parser's positional
    // diagnostic, naming the file.
    let out = run(bin, &[old_p, cut_p]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("cmp-cut.json"), "{err}");
    assert!(err.contains("at byte"), "{err}");

    // Bad usage exits 2; the retired grading flags are unknown flags now.
    let out = run(bin, &[old_p]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
    for flag in ["--threshold-pct", "--fail-on-regression"] {
        let out = run(bin, &[flag, "10", old_p, old_p]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(stderr(&out).contains("unknown flag"), "{flag}");
    }

    for p in [old, moved, full, cut] {
        let _ = std::fs::remove_file(p);
    }
}
