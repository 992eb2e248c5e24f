//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! tlt-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tlt-benchmark collect --out-dir <dir> [--meta key=value]...
//! tlt-benchmark compare <A.json> <B.json>
//! tlt-benchmark list
//! ```
//!
//! `run` prints a human table to stderr and, as the last line of stdout,
//! one JSON object `{correct, attempted, failed, metrics}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exit codes: 0 clean, 1 an output check failed (the metrics are still
//! printed) or `compare` found a regression, 2 usage or parse error.

mod compare;
mod json;
mod kernels;
mod layers;
mod metrics;
mod run;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use json::{obj, Value};
use run::{Budget, Recorder};
use workloads::{Scale, WORKLOADS};

const USAGE: &str = "usage:
  tlt-benchmark run --workload <name> [--seed <n>] [--seconds <s> | --reps <n>] [--trace <0|1>]
                    [--smoke] [--out-dir <dir>] [--detail <file>] [--reference <file>]
  tlt-benchmark collect [--out-dir <dir>] [--meta key=value]...
  tlt-benchmark compare <A.json> <B.json>
  tlt-benchmark list";

struct RunArgs {
    workload: String,
    seed: u64,
    budget: Budget,
    trace: bool,
    scale: Scale,
    out_dir: PathBuf,
    detail: Option<PathBuf>,
    reference: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: String::new(),
        seed: 1,
        budget: Budget::Seconds(Duration::from_secs(10)),
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from("benchmark/out"),
        detail: None,
        reference: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?.to_string(),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds needs a number in (0, 3600]")?;
                a.budget = Budget::Seconds(Duration::from_secs_f64(s));
            }
            "--reps" => {
                let n: usize = value()?
                    .parse()
                    .ok()
                    .filter(|&n| (1..=10_000).contains(&n))
                    .ok_or("--reps needs a whole number from 1 to 10000")?;
                a.budget = Budget::Reps(n);
            }
            "--trace" => {
                a.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--smoke" => a.scale = Scale::Smoke,
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--detail" => a.detail = Some(PathBuf::from(value()?)),
            "--reference" => a.reference = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.iter().any(|(n, _)| *n == a.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "--workload needs one of: {} (got {:?})",
            names.join(", "),
            a.workload
        ));
    }
    Ok(a)
}

/// Warns when other work on the box will disturb the timings.
fn warn_if_loaded() {
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(load) = load {
        if load > cores as f64 / 2.0 {
            eprintln!(
                "warning: 1-min load average {load:.2} exceeds nproc/2 ({cores} cores); timings will be noisy"
            );
        }
    }
}

fn metric_value(name: &str, value: f64) -> (String, Value) {
    let unit = metrics::find(name).map_or("", |m| m.unit);
    (
        name.to_string(),
        obj([
            ("value", Value::Num(value)),
            ("unit", Value::Str(unit.into())),
        ]),
    )
}

/// Reports the failed checks, prints the contract's result line (an
/// operation is one flow; it fails when it never finished) and picks the
/// exit code.
fn finish(failures: &[String], rep: &run::RepFacts, metrics: Vec<(String, Value)>) -> ExitCode {
    for f in failures {
        eprintln!("  CHECK FAILED: {f}");
    }
    let failed: u64 = rep.cells.iter().map(|c| c.unfinished).sum();
    let all_finite = metrics.iter().all(|(_, v)| {
        v.get("value")
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite)
    });
    let correct = failures.is_empty() && failed == 0 && all_finite;
    let attempted: u64 = rep.cells.iter().map(|c| c.count("workload.flows")).sum();
    println!(
        "{}",
        obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(attempted as f64)),
            ("failed", Value::Num(failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_line()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn summary_json(s: &stats::Summary) -> Value {
    obj([
        ("median", Value::Num(s.median)),
        ("q1", Value::Num(s.q1)),
        ("q3", Value::Num(s.q3)),
        ("min", Value::Num(s.min)),
        ("n", Value::Num(s.n as f64)),
    ])
}

/// `run --trace 0`: the end-to-end metrics, default-feature build, no spans.
fn run_end_to_end(a: &RunArgs) -> Result<ExitCode, String> {
    let w = workloads::build(&a.workload, a.scale, a.seed).expect("name was validated");
    let measured = run::timed_reps(&w, a.budget, &mut Recorder::new(false));
    let reps = measured.reps;
    let mut failures = run::check(&w, &reps);
    let t = run::timings(&reps);
    let rss = measured.peak_rss_mb.unwrap_or_else(|| {
        failures.push("cannot read VmHWM from /proc/self/status".into());
        0.0
    });

    eprintln!(
        "{}  seed {}  {} timed reps after 1 warm-up  sim_digest48 {:012x}",
        a.workload,
        a.seed,
        reps.len(),
        reps[0].digest
    );
    eprintln!(
        "  {:<12} {:>5} {:>14} | over reps: {:>12} {:>14} {:>14} {:>14}",
        "metric", "unit", "reported", "q1", "median", "q3", "min"
    );
    for (name, t) in [
        ("setup_s", &t.setup_s),
        ("wall_s", &t.wall_s),
        ("pkts_per_s", &t.pkts_per_s),
    ] {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        let r = &t.reps;
        eprintln!(
            "  {name:<12} {unit:>5} {:>14.6} | {:>23.6} {:>14.6} {:>14.6} {:>14.6}",
            t.value, r.q1, r.median, r.q3, r.min
        );
    }
    eprintln!("  {:<12} {:>5} {rss:>14.3}", "peak_rss_mb", "MB");
    for c in &reps[0].cells {
        eprintln!(
            "  cell {:<22} flows {:>6}  unfinished {}  data_pkts {:>8}  timeouts {:>6}  switch_drops {:>6}",
            c.label,
            c.count("workload.flows"),
            c.unfinished,
            c.count("transport.data_pkts"),
            c.count("transport.timeouts"),
            c.count("netsim.switch.drops")
        );
    }
    if let Some(path) = &a.detail {
        let detail = obj([
            ("workload", Value::Str(a.workload.clone())),
            ("seed", Value::Num(a.seed as f64)),
            ("digest", Value::Num(reps[0].digest as f64)),
            ("wall_s", summary_json(&t.wall_s.reps)),
            ("rep_spread_pct", Value::Num(t.wall_s.reps.spread_pct())),
        ]);
        write_file(path, &(detail.to_line() + "\n"))?;
    }

    Ok(finish(
        &failures,
        &reps[0],
        vec![
            metric_value("setup_s", t.setup_s.value),
            metric_value("wall_s", t.wall_s.value),
            metric_value("pkts_per_s", t.pkts_per_s.value),
            metric_value("peak_rss_mb", rss),
        ],
    ))
}

/// The untraced numbers a traced run is compared with.
struct Reference {
    wall_s: f64,
    spread_pct: f64,
    digest: u64,
}

fn read_reference(path: &Path, a: &RunArgs) -> Result<Reference, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let num = |v: Option<&Value>, what: &str| {
        v.and_then(Value::as_f64)
            .ok_or_else(|| format!("{}: missing number {what}", path.display()))
    };
    if v.get("workload").and_then(Value::as_str) != Some(&a.workload)
        || num(v.get("seed"), "seed")? != a.seed as f64
    {
        return Err(format!(
            "{}: measured for another workload or seed",
            path.display()
        ));
    }
    Ok(Reference {
        wall_s: num(v.get("wall_s").and_then(|w| w.get("q1")), "wall_s.q1")?,
        spread_pct: num(v.get("rep_spread_pct"), "rep_spread_pct")?,
        digest: num(v.get("digest"), "digest")? as u64,
    })
}

/// Timed reps of a traced run when `--reps` does not say otherwise.
const TRACED_REPS: usize = 3;

/// `run --trace 1`: the per-layer metrics, `profile`-feature build, spans on.
fn run_traced(a: &RunArgs) -> Result<ExitCode, String> {
    if !cfg!(feature = "profile") {
        return Err(
            "--trace 1 needs a binary built with --features profile (benchmark/run.sh builds both)"
                .into(),
        );
    }
    let reference = a
        .reference
        .as_deref()
        .map(|p| read_reference(p, a))
        .transpose()?;
    let budget = match a.budget {
        Budget::Reps(n) => Budget::Reps(n),
        Budget::Seconds(_) => Budget::Reps(TRACED_REPS),
    };
    let w = workloads::build(&a.workload, a.scale, a.seed).expect("name was validated");
    let mut rec = Recorder::new(true);
    let reps = run::timed_reps(&w, budget, &mut rec).reps;
    let mut failures = run::check(&w, &reps);
    failures.extend(layers::check_closure(&reps, &rec.spans));
    if let Some(r) = &reference {
        if r.digest != reps[0].digest {
            failures.push(format!(
                "the traced build gives sim_digest48 {:012x}, the default build {:012x}",
                reps[0].digest, r.digest
            ));
        }
    }

    // The same cells without observers, for telemetry.overhead_ratio.
    let unobserved_run_s = w.cells.iter().any(|c| c.observed).then(|| {
        let mut plain = workloads::build(&a.workload, a.scale, a.seed).expect("validated");
        for c in &mut plain.cells {
            c.observed = false;
            c.cfg.trace_sample_every = None;
        }
        let mut rec = Recorder::new(true);
        let reps = run::timed_reps(&plain, budget, &mut rec).reps;
        layers::run_s_fastest(&reps, &rec.spans)
    });

    let kernels = kernels::run_all();
    let m = layers::layer_metrics(
        &reps,
        &rec.spans,
        &layers::Outside {
            kernels: &kernels,
            untraced_wall_s: reference.as_ref().map(|r| r.wall_s),
            untraced_spread_pct: reference.as_ref().map(|r| r.spread_pct),
            unobserved_run_s,
        },
    );

    let trace_path = a.out_dir.join(format!("trace-{}.json", a.workload));
    write_file(&trace_path, &layers::chrome_trace(&a.workload, &rec.spans))?;

    eprintln!(
        "{}  seed {}  {} traced reps after 1 warm-up  sim_digest48 {:012x}  spans -> {}",
        a.workload,
        a.seed,
        reps.len(),
        reps[0].digest,
        trace_path.display()
    );
    let mut out = Vec::with_capacity(metrics::PER_LAYER.len());
    for def in metrics::PER_LAYER {
        let v = m.get(def.name).copied().unwrap_or(0.0);
        eprintln!("  {:<34} {:>6} {:>18.6}", def.name, def.unit, v);
        out.push(metric_value(def.name, v));
    }
    Ok(finish(&failures, &reps[0], out))
}

/// `collect`: joins the per-workload result lines under `out_dir` into
/// `result.json` — what `compare` reads.
fn collect(args: &[String]) -> Result<ExitCode, String> {
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut meta: Vec<(String, Value)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out-dir" => out_dir = PathBuf::from(it.next().ok_or("--out-dir needs a value")?),
            "--meta" => {
                let kv = it.next().ok_or("--meta needs key=value")?;
                let (k, v) = kv.split_once('=').ok_or("--meta needs key=value")?;
                meta.push((k.to_string(), Value::Str(v.to_string())));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        let mut merged: Vec<(String, Value)> = Vec::new();
        let mut head: Option<Value> = None;
        for part in ["e2e", "layers"] {
            let path = out_dir.join(format!("{name}.{part}.json"));
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            all_correct &= v.get("correct").and_then(Value::as_bool) == Some(true);
            merged.extend(
                v.get("metrics")
                    .map_or(&[][..], Value::entries)
                    .iter()
                    .cloned(),
            );
            head.get_or_insert(v);
        }
        let Some(head) = head else { continue };
        workloads.push((
            name.to_string(),
            obj([
                (
                    "correct",
                    head.get("correct").cloned().unwrap_or(Value::Null),
                ),
                (
                    "attempted",
                    head.get("attempted").cloned().unwrap_or(Value::Null),
                ),
                ("failed", head.get("failed").cloned().unwrap_or(Value::Null)),
                ("metrics", Value::Obj(merged)),
            ]),
        ));
    }
    if workloads.is_empty() {
        return Err(format!("no result lines under {}", out_dir.display()));
    }
    print!("{}", compare::table(&workloads));
    let doc = obj([
        ("schema", Value::Str("tlt-benchmark/v1".into())),
        ("provenance", Value::Obj(meta)),
        ("workloads", Value::Obj(workloads)),
        // This benchmark measures; it claims no gain.
        ("claim", Value::Null),
    ]);
    let path = out_dir.join("result.json");
    write_file(&path, &(compare::pretty(&doc) + "\n"))?;
    eprintln!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let a = parse_run(&args[1..])?;
            warn_if_loaded();
            if a.trace {
                run_traced(&a)
            } else {
                run_end_to_end(&a)
            }
        }
        Some("collect") => collect(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err("compare needs exactly two result files".into()),
        },
        Some("list") => {
            for (name, why) in WORKLOADS {
                println!("{name}\t{why}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("missing or unknown subcommand".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
