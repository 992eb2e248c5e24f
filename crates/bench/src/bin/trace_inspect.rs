//! Flight-recorder trace inspector and artifact reader.
//!
//! ```text
//! trace_inspect [--metrics FILE]... [--diff OLD NEW]... [TRACE.jsonl]...
//! ```
//!
//! A JSONL trace produced by any experiment binary's `--trace` flag is
//! summarized per `run_start`/`run_end` bracket — per-switch drop-reason
//! tables, RTO root-cause attribution, PFC pause timeline, event counts —
//! and the counted events are cross-checked against the totals the producer
//! declared in `run_end`.
//!
//! `--metrics FILE` renders any `tlt-metrics/v1` artifact: a `--metrics`
//! registry export, a `--profile-out` engine profile (event-kind and series
//! tables), a `serve_grid --serve-out` report (per-scheme p50/p99/p999 SLO
//! table and timeout-violation causes) or a `--spans-out` latency-ledger
//! export (phase × percentile table and the worst-request span trees), and
//! holds it to every export invariant (`telemetry::Artifact::validate`,
//! against `ci/metrics_schema.json` compiled in, and `check_bytes`).
//!
//! `--diff OLD NEW` compares two artifacts key by key and prints every
//! count that moved (informational: a moved count is a behaviour change to
//! read, never a verdict). Two artifacts whose `scale`, `build_profile` or
//! `seeds` provenance differ are refused.
//!
//! Exit status: 0 when every run is internally consistent, 1 when any run's
//! counted events disagree with its declared totals (or the file contains
//! malformed or orphaned lines; a line that is not UTF-8 is malformed) or
//! an artifact breaks an invariant (named on stderr with its values), 2 on
//! usage or I/O errors, a malformed artifact (its positional parse
//! diagnostic is forwarded) or a refused diff.

use std::fs::File;
use std::io::BufReader;

use telemetry::diff::compare;
use telemetry::inspect::inspect_reader;
use telemetry::schema::Schema;
use telemetry::Artifact;

const USAGE: &str = "usage: trace_inspect [--metrics FILE]... [--diff OLD NEW]... [TRACE.jsonl]...";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Reads and parses one artifact (kept with its text), exiting 2 on failure.
fn load(path: &str) -> (Artifact, String) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    let artifact = Artifact::parse(&text).unwrap_or_else(|e| {
        fail(&format!(
            "cannot parse {path}: invalid tlt-metrics JSON: {e}"
        ))
    });
    (artifact, text)
}

/// The file argument following `flag`.
fn operand(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| fail(&format!("{flag} needs a file argument\n{USAGE}")))
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut metrics: Vec<String> = Vec::new();
    let mut diffs: Vec<(String, String)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            "--metrics" => metrics.push(operand(&mut args, "--metrics")),
            "--diff" => {
                let old = operand(&mut args, "--diff");
                diffs.push((old, operand(&mut args, "--diff")));
            }
            other if other.starts_with("--") => fail(&format!("unknown flag {other}\n{USAGE}")),
            path => paths.push(path.to_string()),
        }
    }
    if paths.is_empty() && metrics.is_empty() && diffs.is_empty() {
        fail(USAGE);
    }

    let mut clean = true;
    for path in &paths {
        let file = File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
        let report = inspect_reader(BufReader::new(file))
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        if paths.len() > 1 {
            println!("### {path}");
        }
        print!("{}", report.render());
        clean &= report.is_clean();
    }
    let schema = Schema::builtin();
    for path in &metrics {
        let (artifact, text) = load(path);
        println!("### metrics {path}");
        print!("{}", artifact.render());
        let verdict = artifact
            .check_bytes(&text)
            .and_then(|()| artifact.validate(&schema));
        if let Err(e) = verdict {
            eprintln!("error: {path}: invariant violated: {e}");
            clean = false;
        }
    }
    for (old, new) in &diffs {
        let cmp = compare(&load(old).0, &load(new).0);
        if let Some(reason) = &cmp.refusal {
            fail(&format!("refusing to compare {old} and {new}: {reason}"));
        }
        println!("### diff {old} {new}");
        print!("{}", cmp.render());
    }
    std::process::exit(if clean { 0 } else { 1 });
}
