//! The performance-baseline workload suite behind the `bench_baseline`
//! binary.
//!
//! Each workload is a representative (scheme, seed) grid drawn from the
//! figure binaries. The suite runs every workload twice — once with a
//! single worker (`--jobs 1`) and once with the requested worker count —
//! measuring wall-clock time and simulator events/sec for both, verifying
//! that the parallel fold reproduces the sequential results exactly, and
//! emitting a machine-readable JSON report (committed per milestone as
//! `BENCH_pr*.json`, `BENCH_pr2.json` being the seed) so later PRs have a
//! trajectory to be measured against — diff two reports with the
//! `benchcmp` binary.

use transport::TransportKind;
use workload::{incast_burst, standard_mix, FlowSizeCdf};

use crate::plan::RunPlan;
use crate::profiler::{self, Provenance};
use crate::runner::{self, Args, SchemeResult, TcpVariant};

/// One workload's report line.
pub struct WorkloadReport {
    /// Workload name (stable across PRs).
    pub name: &'static str,
    /// Schemes in the grid.
    pub schemes: usize,
    /// (scheme, seed) jobs executed per run.
    pub jobs_run: usize,
    /// Wall time with one worker (ms).
    pub wall_ms_jobs1: f64,
    /// Wall time with `jobs` workers (ms).
    pub wall_ms_jobsn: f64,
    /// Simulator events scheduled (identical across worker counts).
    pub events_scheduled: u64,
    /// Whether the parallel fold reproduced the sequential results exactly.
    pub deterministic: bool,
}

impl WorkloadReport {
    /// `jobs1` wall time over `jobsn` wall time.
    pub fn speedup(&self) -> f64 {
        if self.wall_ms_jobsn > 0.0 {
            self.wall_ms_jobs1 / self.wall_ms_jobsn
        } else {
            1.0
        }
    }
}

/// The whole suite's report.
pub struct SuiteReport {
    /// Cores the host offers.
    pub cores: usize,
    /// Worker count the parallel runs used.
    pub jobs: usize,
    /// Scale label (`quick` / `default` / `full`).
    pub scale: &'static str,
    /// Seeds per scheme.
    pub seeds: u64,
    /// `release` or `debug` — provenance so `benchcmp` can refuse to diff
    /// wall-clock numbers across build profiles.
    pub build_profile: &'static str,
    /// Per-workload measurements.
    pub workloads: Vec<WorkloadReport>,
}

impl SuiteReport {
    /// Total sequential wall time (ms).
    pub fn total_jobs1_ms(&self) -> f64 {
        self.workloads.iter().map(|w| w.wall_ms_jobs1).sum()
    }

    /// Total parallel wall time (ms).
    pub fn total_jobsn_ms(&self) -> f64 {
        self.workloads.iter().map(|w| w.wall_ms_jobsn).sum()
    }

    /// Whole-suite speedup.
    pub fn total_speedup(&self) -> f64 {
        if self.total_jobsn_ms() > 0.0 {
            self.total_jobs1_ms() / self.total_jobsn_ms()
        } else {
            1.0
        }
    }

    /// Whether every workload's parallel fold matched its sequential run.
    pub fn all_deterministic(&self) -> bool {
        self.workloads.iter().all(|w| w.deterministic)
    }

    /// Hand-rolled JSON encoding (the repo is `std`-only; no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"tlt-bench-baseline/v1\",\n");
        s.push_str("  \"generated_by\": \"bench_baseline\",\n");
        s.push_str(&format!("  \"cores\": {},\n", self.cores));
        s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        s.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        s.push_str(&format!("  \"seeds\": {},\n", self.seeds));
        s.push_str(&format!(
            "  \"build_profile\": \"{}\",\n",
            self.build_profile
        ));
        s.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            let events_per_sec = |ms: f64| {
                if ms > 0.0 {
                    w.events_scheduled as f64 / (ms / 1e3)
                } else {
                    0.0
                }
            };
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"schemes\": {}, \"jobs_run\": {}, \
                 \"wall_ms_jobs1\": {:.3}, \"wall_ms_jobsn\": {:.3}, \
                 \"speedup\": {:.3}, \"events_scheduled\": {}, \
                 \"events_per_sec_jobs1\": {:.0}, \"events_per_sec_jobsn\": {:.0}, \
                 \"deterministic\": {}}}{}\n",
                w.name,
                w.schemes,
                w.jobs_run,
                w.wall_ms_jobs1,
                w.wall_ms_jobsn,
                w.speedup(),
                w.events_scheduled,
                events_per_sec(w.wall_ms_jobs1),
                events_per_sec(w.wall_ms_jobsn),
                w.deterministic,
                if i + 1 < self.workloads.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"total\": {{\"wall_ms_jobs1\": {:.3}, \"wall_ms_jobsn\": {:.3}, \
             \"speedup\": {:.3}, \"deterministic\": {}}}\n",
            self.total_jobs1_ms(),
            self.total_jobsn_ms(),
            self.total_speedup(),
            self.all_deterministic(),
        ));
        s.push_str("}\n");
        s
    }
}

/// The suite's workload names, in execution order.
pub const WORKLOADS: [&str; 3] = ["tcp_family_mix", "roce_family_mix", "incast_micro"];

/// Builds the named workload's plan at the given worker count.
fn build(name: &str, args: &Args, jobs: usize) -> RunPlan<'static> {
    let mut plan = RunPlan::sized(jobs, args.seeds);
    match name {
        // Figure 5-style: DCTCP {baseline, TLT} × {lossy, PFC} on the
        // standard mix.
        "tcp_family_mix" => {
            let p = args.mix();
            for pfc in [false, true] {
                for v in [TcpVariant::Baseline, TcpVariant::Tlt] {
                    plan.scheme(
                        format!(
                            "dctcp{}{}",
                            if pfc { "+pfc" } else { "" },
                            if v == TcpVariant::Tlt { "+tlt" } else { "" }
                        ),
                        move |_s| runner::tcp_cfg(&p, TransportKind::Dctcp, v, pfc),
                        move |s| {
                            let mut mp = p;
                            mp.seed = s;
                            standard_mix(&FlowSizeCdf::web_search(), mp)
                        },
                    );
                }
            }
        }
        // Figure 6-style: DCQCN+SACK and HPCC, baseline vs TLT.
        "roce_family_mix" => {
            let p = args.mix();
            for kind in [TransportKind::DcqcnSack, TransportKind::Hpcc] {
                for tlt in [false, true] {
                    plan.scheme(
                        format!("{}{}", kind.name(), if tlt { "+tlt" } else { "" }),
                        move |_s| runner::roce_cfg(&p, kind, tlt, false),
                        move |s| {
                            let mut mp = p;
                            mp.seed = s;
                            standard_mix(&FlowSizeCdf::web_search(), mp)
                        },
                    );
                }
            }
        }
        // Figure 14-style: synchronized single-switch incast.
        "incast_micro" => {
            let n = if args.quick { 40 } else { 100 };
            for kind in [TransportKind::Tcp, TransportKind::Dctcp] {
                for v in [TcpVariant::Baseline, TcpVariant::Tlt] {
                    plan.scheme(
                        format!(
                            "{}{}_incast{}",
                            kind.name(),
                            if v == TcpVariant::Tlt { "+tlt" } else { "" },
                            n
                        ),
                        move |_s| {
                            let p = workload::MixParams::reduced(1);
                            runner::tcp_cfg(&p, kind, v, false)
                                .with_topology(dcsim::small_single_switch(9))
                        },
                        move |s| incast_burst(n, 8, 32_000, s),
                    );
                }
            }
        }
        other => panic!("unknown workload {other}"),
    }
    plan
}

/// Exact equality of two runs' per-scheme metrics (names and every
/// per-seed measurement).
fn results_equal(a: &[SchemeResult], b: &[SchemeResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.events_scheduled == y.events_scheduled
                && [
                    (&x.fg_p999_ms, &y.fg_p999_ms),
                    (&x.fg_p99_ms, &y.fg_p99_ms),
                    (&x.bg_avg_ms, &y.bg_avg_ms),
                    (&x.bg_goodput_gbps, &y.bg_goodput_gbps),
                    (&x.timeouts_per_1k, &y.timeouts_per_1k),
                    (&x.pause_per_1k, &y.pause_per_1k),
                    (&x.pause_frac, &y.pause_frac),
                    (&x.important_frac, &y.important_frac),
                    (&x.important_loss, &y.important_loss),
                    (&x.clocking_kb, &y.clocking_kb),
                    (&x.max_queue_kb, &y.max_queue_kb),
                    (&x.median_queue_kb, &y.median_queue_kb),
                ]
                .iter()
                .all(|(m, n)| m.values() == n.values())
        })
}

/// Runs the whole suite: every workload sequentially and at
/// `args.effective_jobs()` workers, with a built-in determinism
/// cross-check.
pub fn run_suite(args: &Args) -> SuiteReport {
    let jobs = args.effective_jobs();
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        eprintln!("[bench_baseline] {name}: --jobs 1 ...");
        let seq = profiler::timed(build(name, args, 1));
        // On a single-core box (or an explicit --jobs 1) the "parallel"
        // leg would be a second serial run of the same plan — pure wall
        // noise that has reported phantom anti-speedups. Reuse the serial
        // measurement; jobs-vs-serial determinism is still covered by the
        // plan tests and CI's --jobs 1 vs 2/4 byte-compares.
        if jobs == 1 {
            eprintln!("[bench_baseline] {name}: --jobs 1 again skipped (reusing serial run)");
            workloads.push(WorkloadReport {
                name,
                schemes: seq.out.results.len(),
                jobs_run: seq.out.jobs_run,
                wall_ms_jobs1: seq.wall_ms,
                wall_ms_jobsn: seq.wall_ms,
                events_scheduled: seq.out.events_scheduled,
                deterministic: true,
            });
            continue;
        }
        eprintln!("[bench_baseline] {name}: --jobs {jobs} ...");
        // The parallel cross-check leg re-runs a workload that the serial
        // leg already merged into the installed `--trace` / `--metrics` /
        // `--profile-out` exports, so it runs as a shadow plan: were it to
        // merge too, every export would double under `--jobs N` while a
        // `--jobs 1` invocation (which reuses its serial leg) merged once —
        // and the "byte-identical under any worker count" guarantee would
        // be lost.
        let par = profiler::timed(build(name, args, jobs).shadow());
        // Determinism bar: parallel results, and (with the profile feature
        // on) the entire event-level profile, must match the sequential
        // run byte for byte.
        let profiles_match = match (&seq.out.profile, &par.out.profile) {
            (Some(a), Some(b)) => a.to_json() == b.to_json(),
            (None, None) => true,
            _ => false,
        };
        let deterministic = results_equal(&seq.out.results, &par.out.results)
            && seq.out.events_scheduled == par.out.events_scheduled
            && profiles_match;
        workloads.push(WorkloadReport {
            name,
            schemes: seq.out.results.len(),
            jobs_run: seq.out.jobs_run,
            wall_ms_jobs1: seq.wall_ms,
            wall_ms_jobsn: par.wall_ms,
            events_scheduled: seq.out.events_scheduled,
            deterministic,
        });
    }
    SuiteReport {
        cores: profiler::available_cores(),
        jobs,
        scale: profiler::scale_label(args),
        seeds: args.seeds,
        build_profile: Provenance::build_profile_label(),
        workloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_a_nonempty_plan() {
        let args = Args::parse_from(["--quick"]).unwrap();
        for name in WORKLOADS {
            let plan = build(name, &args, 1);
            assert!(!plan.is_empty(), "{name} built an empty plan");
        }
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = SuiteReport {
            cores: 4,
            jobs: 4,
            scale: "quick",
            seeds: 1,
            build_profile: "release",
            workloads: vec![WorkloadReport {
                name: "tcp_family_mix",
                schemes: 4,
                jobs_run: 4,
                wall_ms_jobs1: 100.0,
                wall_ms_jobsn: 40.0,
                events_scheduled: 123_456,
                deterministic: true,
            }],
        };
        let json = report.to_json();
        for key in [
            "\"schema\": \"tlt-bench-baseline/v1\"",
            "\"cores\": 4",
            "\"build_profile\": \"release\"",
            "\"wall_ms_jobs1\": 100.000",
            "\"speedup\": 2.500",
            "\"events_scheduled\": 123456",
            "\"deterministic\": true",
            "\"total\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!((report.total_speedup() - 2.5).abs() < 1e-9);
    }
}
