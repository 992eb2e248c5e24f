//! End-to-end tests for the harness binaries' error paths and exit codes:
//! `trace_inspect --metrics` must fail loudly (exit 2, positional
//! diagnostic) on malformed, truncated or retired-schema artifacts and
//! (exit 1, the invariant named) on a well-formed one that breaks an export
//! invariant,
//! `trace_inspect --diff` must print exactly the counts that moved and
//! refuse provenance mismatches, an experiment binary must refuse
//! `--full --quick` and, before running, an output path it cannot create,
//! and the default build must write every observer export.

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

/// A minimal valid `tlt-metrics/v1` export: the provenance a harness
/// export carries, and `timeouts` RTOs attributed to causes that sum to
/// `causes`.
fn metrics_json(timeouts: u64, causes: u64) -> String {
    let mut reg = telemetry::Registry::new();
    reg.inc("data_pkts_sent", 128);
    reg.inc("timeouts", timeouts);
    reg.inc("rto_cause_color", causes);
    reg.inc("rto_cause_unknown", 0);
    reg.gauge_max("max_queue_bytes", 9000);
    reg.observe("port_queue_bytes/n0/p0", 250);
    for (k, v) in [
        ("build_profile", "release"),
        ("cores", "2"),
        ("jobs", "any"),
        ("scale", "quick"),
        ("seeds", "1"),
    ] {
        reg.set_meta(k, v);
    }
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
    let good = metrics_json(3, 3);
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

/// A well-formed artifact whose RTO causes do not sum to its timeouts
/// still renders, but exits 1 with the invariant and its values.
#[test]
fn trace_inspect_exits_1_on_a_broken_invariant() {
    let bin = env!("CARGO_BIN_EXE_trace_inspect");
    let broken = tmp("broken-causes.json", &metrics_json(3, 2));
    let out = run(bin, &["--metrics", broken.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("broken-causes.json"), "{err}");
    assert!(
        err.contains("registry: rto_cause_* == timeouts: 2 != 3"),
        "{err}"
    );
    assert!(stdout(&out).contains("data_pkts_sent"), "still renders");

    // Valid JSON whose keys are not in canonical order: exit 1 too.
    let good = metrics_json(3, 3);
    let reordered = good.replacen(
        "    \"build_profile\": \"release\",\n    \"cores\": \"2\",",
        "    \"cores\": \"2\",\n    \"build_profile\": \"release\",",
        1,
    );
    assert_ne!(reordered, good);
    let moved = tmp("reordered.json", &reordered);
    let out = run(bin, &["--metrics", moved.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("canonical bytes: line 4"),
        "{}",
        stderr(&out)
    );

    for p in [broken, moved] {
        let _ = std::fs::remove_file(p);
    }
}

/// A minimal well-formed spans export: one flow's phase breakdown plus one
/// request span so every section of the document is exercised.
fn spans_json() -> String {
    let mut rep = telemetry::Artifact::new();
    rep.reg.set_meta("scale", "k8");
    rep.reg.set_meta("slo_ns", "2000000");
    rep.reg.set_meta("workload", "cache_follower");
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
    let out = run(bin, &["--metrics", garbage.to_str().unwrap()]);
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
    let out = run(bin, &["--metrics", truncated.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid tlt-metrics JSON"));

    // A document under a retired schema tag is rejected, not misrendered.
    let retired = good.replace("tlt-metrics/v1", "tlt-spans/v1");
    let wrong = tmp("spans-wrong-schema.json", &retired);
    let out = run(bin, &["--metrics", wrong.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("expected \"tlt-metrics/v1\""));

    // Missing file: exit 2 with an open diagnostic.
    let out = run(bin, &["--metrics", "/nonexistent/spans.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot open"));

    // The intact export renders the phase table and exits 0.
    let intact = tmp("spans-intact.json", &good);
    let out = run(bin, &["--metrics", intact.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = stdout(&out);
    assert!(body.contains("rto_stall"), "phase table missing: {body}");
    assert!(body.contains("worst requests"), "reservoir missing: {body}");
    assert!(
        body.contains("### metrics"),
        "section header missing: {body}"
    );

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

/// `bin args` exits 2 with `msg` on stderr before any simulation runs
/// (nothing on stdout).
fn exits_2_before_running(bin: &str, args: &[&str], msg: &str) {
    let out = run(bin, args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    assert!(stderr(&out).contains(msg), "{args:?}: {}", stderr(&out));
    assert!(stdout(&out).is_empty(), "{args:?} ran a simulation");
}

/// No scale is both quick and full.
#[test]
fn full_with_quick_exits_2() {
    let bin = env!("CARGO_BIN_EXE_fig02_fixed_rto");
    exits_2_before_running(bin, &["--full", "--quick"], "--full and --quick");
}

/// Every output flag, given a path that cannot be created (its parent is a
/// regular file, so no directory can be made either), exits 2 naming the
/// path before any simulation runs.
#[test]
fn an_uncreatable_output_path_exits_2_before_running() {
    let parent = tmp("not-a-dir", "");
    let bad = parent.join("out");
    let bad = bad.to_str().expect("utf-8 path");
    let fig = env!("CARGO_BIN_EXE_fig02_fixed_rto");
    for flag in ["--out", "--trace", "--metrics", "--profile-out"] {
        exits_2_before_running(fig, &["--quick", flag, bad], bad);
    }
    let grid = env!("CARGO_BIN_EXE_serve_grid");
    for flag in ["--serve-out", "--spans-out", "--perfetto-out"] {
        exits_2_before_running(grid, &["--quick", flag, bad], bad);
    }
    let _ = std::fs::remove_file(parent);
}

/// The one build writes every observer export: a figure binary's
/// `--profile-out`, serve_grid's `--spans-out` and `--perfetto-out`, each
/// byte-identical at `--jobs 1` and `--jobs 4`.
#[test]
fn the_default_build_writes_every_observer_export_at_any_jobs() {
    let path = |name: &str, jobs: u32| {
        let p =
            std::env::temp_dir().join(format!("tlt-cli-{}-{name}{jobs}.json", std::process::id()));
        p.to_str().expect("utf-8 path").to_string()
    };
    let exports = ["prof", "spans", "perfetto"];
    for jobs in [1, 4] {
        let j = jobs.to_string();
        let [prof, spans, perfetto] = exports.map(|e| path(e, jobs));
        let fig = env!("CARGO_BIN_EXE_fig14_incast_micro");
        let out = run(fig, &["--quick", "--jobs", &j, "--profile-out", &prof]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        let grid = env!("CARGO_BIN_EXE_serve_grid");
        let args = [
            "--quick",
            "--jobs",
            &j,
            "--spans-out",
            &spans,
            "--perfetto-out",
            &perfetto,
        ];
        let out = run(grid, &args);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        assert!(stdout(&out).contains("conservation cross-check: ok"));
    }
    for e in exports {
        let read = |jobs| std::fs::read(path(e, jobs)).expect("the export was written");
        let (one, four) = (read(1), read(4));
        for jobs in [1, 4] {
            let _ = std::fs::remove_file(path(e, jobs));
        }
        assert!(!one.is_empty(), "{e}: empty export");
        assert!(one == four, "{e}: --jobs 1 and --jobs 4 differ");
    }
}

#[test]
fn trace_inspect_diff_diffs_counts_and_refuses() {
    let bin = env!("CARGO_BIN_EXE_trace_inspect");
    let good = stamped_metrics(128, "quick");
    let old = tmp("cmp-old.json", &good);
    let moved = tmp("cmp-moved.json", &stamped_metrics(129, "quick"));
    let full = tmp("cmp-full.json", &stamped_metrics(128, "full"));
    let cut = tmp("cmp-cut.json", &good[..good.len() / 2]);
    let [old_p, moved_p, full_p, cut_p] = [&old, &moved, &full, &cut].map(|p| p.to_str().unwrap());

    // An identical pair: exit 0, no changed row.
    let out = run(bin, &["--diff", old_p, old_p]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = stdout(&out);
    assert!(body.contains("5 keys compared, 0 changed"), "{body}");
    assert!(!body.contains("counter/"), "{body}");

    // One moved counter: exactly one row, and still exit 0 (informational).
    let out = run(bin, &["--diff", old_p, moved_p]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = stdout(&out);
    let rows: Vec<_> = body.lines().filter(|l| l.contains("counter/")).collect();
    assert_eq!(rows.len(), 1, "{body}");
    assert!(rows[0].starts_with("counter/data_pkts_sent"), "{body}");
    assert!(rows[0].ends_with("+0.8%"), "{body}");
    assert!(body.contains("5 keys compared, 1 changed"), "{body}");

    // A scale mismatch is refused: exit 2, nothing compared.
    let out = run(bin, &["--diff", old_p, full_p]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("scale mismatch"));
    assert!(stdout(&out).is_empty());

    // A truncated file: exit 2 with the telemetry parser's positional
    // diagnostic, naming the file.
    let out = run(bin, &["--diff", old_p, cut_p]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("cmp-cut.json"), "{err}");
    assert!(err.contains("at byte"), "{err}");

    // One operand short is a usage error; the retired flags are unknown.
    let out = run(bin, &["--diff", old_p]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
    for flag in ["--serve", "--spans", "--json", "--force"] {
        let out = run(bin, &[flag, old_p]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(stderr(&out).contains("unknown flag"), "{flag}");
    }

    for p in [old, moved, full, cut] {
        let _ = std::fs::remove_file(p);
    }
}

/// `crates/bench/clippy.toml` keeps the wall clock and locked shared state
/// out of bench, tests included. Each expectation below covers one of its
/// four entries and goes unfulfilled, failing `cargo clippy -- -D
/// warnings`, if that entry is dropped.
#[test]
fn the_wall_clock_and_locks_are_lint_errors_in_bench() {
    #[expect(clippy::disallowed_types, reason = "pins bench's `Instant` entry")]
    fn instant() -> Option<std::time::Instant> {
        None
    }
    #[expect(clippy::disallowed_types, reason = "pins bench's `SystemTime` entry")]
    fn system_time() -> Option<std::time::SystemTime> {
        None
    }
    #[expect(clippy::disallowed_types, reason = "pins bench's `Mutex` entry")]
    fn mutex() -> Option<std::sync::Mutex<()>> {
        None
    }
    #[expect(clippy::disallowed_types, reason = "pins bench's `RwLock` entry")]
    fn rw_lock() -> Option<std::sync::RwLock<()>> {
        None
    }
    assert!(instant().is_none() && system_time().is_none());
    assert!(mutex().is_none() && rw_lock().is_none());
}
