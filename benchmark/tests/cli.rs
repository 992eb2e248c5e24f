//! The benchmark driven as a program: exit codes, the result line, and a
//! result file's round trip through `collect` and `compare`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tlt-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// A fresh directory per test: tests run in parallel and must not share files.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_string()
}

#[test]
fn usage_errors_exit_2_without_a_result_line() {
    for args in [
        &["run", "--workload", "mix_tcp", "--wat"][..],
        &["run", "--workload", "mix_tcp", "--seed", "x"],
        &["run", "--workload", "mix_tcp", "--reps", "0"],
        &["run", "--workload", "mix_tcp", "--seconds", "-1"],
        &["run", "--workload", "mix_tcp", "--trace", "2"],
        &["run", "--workload", "no_such_workload"],
        &["run"],
        &["compare", "only-one.json"],
        &["frobnicate"],
        &[],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "{args:?}"
        );
    }
}

#[test]
fn list_names_the_seven_workloads() {
    let out = bench(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let names: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.split('\t').next().unwrap_or("").to_string())
        .collect();
    assert_eq!(
        names,
        [
            "mix_tcp",
            "mix_roce",
            "incast_burst",
            "serve_k8",
            "serve_k24",
            "mix_tcp_observed",
            "mix_faults"
        ]
    );
}

fn smoke_line(workload: &str, seed: &str, dir: &Path) -> String {
    let out = bench(&[
        "run",
        "--workload",
        workload,
        "--seed",
        seed,
        "--smoke",
        "--reps",
        "2",
        "--trace",
        "0",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    last_line(&out)
}

#[test]
fn result_line_has_the_contract_keys_and_repeats_for_a_seed() {
    let dir = scratch("result_line");
    let line = smoke_line("incast_burst", "7", &dir);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    for metric in ["setup_s", "wall_s", "pkts_per_s", "peak_rss_mb"] {
        assert!(
            line.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{line}"
        );
    }
    // Same seed, same inputs: the attempted-operations count repeats.
    let attempted = |l: &str| l.split("\"attempted\": ").nth(1).unwrap()[..6].to_string();
    assert_eq!(
        attempted(&line),
        attempted(&smoke_line("incast_burst", "7", &dir))
    );
}

#[test]
fn result_file_round_trips_through_collect_and_compare() {
    let dir = scratch("round_trip");
    let d = dir.to_str().unwrap();
    for w in ["incast_burst", "mix_faults"] {
        std::fs::write(dir.join(format!("{w}.e2e.json")), smoke_line(w, "3", &dir)).unwrap();
    }
    let out = bench(&["collect", "--out-dir", d, "--meta", "seed=3"]);
    assert_eq!(out.status.code(), Some(0));
    let table = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        table.contains("wall_s") && table.contains("incast_burst"),
        "{table}"
    );
    let result = dir.join("result.json");
    let text = std::fs::read_to_string(&result).unwrap();
    assert!(text.contains("\"schema\": \"tlt-benchmark/v1\""));
    assert!(text.trim_end().ends_with("\"claim\": null\n}"), "{text}");

    let r = result.to_str().unwrap();
    assert_eq!(bench(&["compare", r, r]).status.code(), Some(0));

    // Twice the wall time is past any bound: a regression, exit 1.
    let slow = dir.join("slow.json");
    let wall = text.split("\"wall_s\": {\"value\": ").nth(1).unwrap();
    let wall = &wall[..wall.find(',').unwrap()];
    let doubled = format!("{}", wall.parse::<f64>().unwrap() * 2.0);
    std::fs::write(&slow, text.replacen(wall, &doubled, 1)).unwrap();
    let out = bench(&["compare", r, slow.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("regressed"));

    // Malformed input: a positioned message, exit 2, no panic.
    let broken = dir.join("broken.json");
    std::fs::write(&broken, &text[..text.len() / 2]).unwrap();
    let out = bench(&["compare", r, broken.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("line ") && err.contains("column "), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let out = bench(&["compare", r, dir.join("absent.json").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

#[cfg(not(feature = "profile"))]
#[test]
fn traced_run_needs_the_profile_build() {
    let out = bench(&["run", "--workload", "mix_tcp", "--smoke", "--trace", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--features profile"));
}

#[cfg(feature = "profile")]
#[test]
fn traced_run_prints_every_layer_metric_and_writes_the_trace() {
    let dir = scratch("traced");
    let d = dir.to_str().unwrap();
    let reference = dir.join("ref.json");
    let common = [
        "run",
        "--workload",
        "serve_k8",
        "--seed",
        "5",
        "--smoke",
        "--reps",
        "1",
    ];
    let mut args = common.to_vec();
    args.extend(["--trace", "0", "--detail", reference.to_str().unwrap()]);
    assert_eq!(bench(&args).status.code(), Some(0));
    let mut args = common.to_vec();
    args.extend([
        "--trace",
        "1",
        "--out-dir",
        d,
        "--reference",
        reference.to_str().unwrap(),
    ]);
    let out = bench(&args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = last_line(&out);
    for metric in [
        "eventsim.queue_pushes",
        "netsim.switch.enq_deq_ns",
        "dcsim.run_s",
        "serve.requests",
        "harness.rep_spread_pct",
    ] {
        assert!(
            line.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{metric}"
        );
    }
    let trace = std::fs::read_to_string(dir.join("trace-serve_k8.json")).unwrap();
    assert!(trace.contains("\"traceEvents\"") && trace.contains("\"name\": \"dcsim.run\""));
}
