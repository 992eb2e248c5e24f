//! The performance-baseline recorder: times a representative workload
//! suite sequentially (`--jobs 1`) and in parallel, cross-checks that both
//! produce identical results, and writes the report to `--out` (default
//! `bench_baseline.json`, an uncommitted scratch name, so a bare run can
//! never clobber a committed `BENCH_pr*.json`).
//!
//! The committed reports form the repo's perf trajectory: later PRs re-run
//! the suite and diff against them with the `benchcmp` binary. Built with
//! `--features profile`, `--profile-out` additionally exports the merged
//! event-level engine profile (`tlt-profile/v1`).
//!
//! ```text
//! cargo run --release -p bench --bin bench_baseline              # bench_baseline.json
//! cargo run --release -p bench --bin bench_baseline -- --quick --out /tmp/b.json
//! cargo run --release -p bench --features profile --bin bench_baseline -- \
//!     --quick --profile-out /tmp/prof.json
//! ```

use bench::baseline;
use bench::runner::Args;

fn main() {
    let args = Args::parse();
    let report = baseline::run_suite(&args);

    println!(
        "\n== bench_baseline: {} scale, {} seeds, {} cores, --jobs {} ==",
        report.scale, report.seeds, report.cores, report.jobs
    );
    println!(
        "{:<18}{:>10}{:>14}{:>14}{:>9}{:>16}{:>8}",
        "workload", "jobs run", "jobs1 (ms)", "jobsN (ms)", "speedup", "events/s (N)", "det"
    );
    for w in &report.workloads {
        let eps = if w.wall_ms_jobsn > 0.0 {
            w.events_scheduled as f64 / (w.wall_ms_jobsn / 1e3)
        } else {
            0.0
        };
        println!(
            "{:<18}{:>10}{:>14.1}{:>14.1}{:>8.2}x{:>16.0}{:>8}",
            w.name,
            w.jobs_run,
            w.wall_ms_jobs1,
            w.wall_ms_jobsn,
            w.speedup(),
            eps,
            if w.deterministic { "yes" } else { "NO" }
        );
    }
    println!(
        "{:<18}{:>10}{:>14.1}{:>14.1}{:>8.2}x",
        "total",
        "",
        report.total_jobs1_ms(),
        report.total_jobsn_ms(),
        report.total_speedup()
    );

    let path = args.out.as_deref().unwrap_or("bench_baseline.json");
    std::fs::write(path, report.to_json()).expect("write baseline report");
    eprintln!("wrote {path}");

    if !report.all_deterministic() {
        eprintln!("error: parallel results diverged from sequential results");
        std::process::exit(1);
    }
}
