//! Integration test for the parallel run harness: a (scheme, seed) grid
//! executed with `--jobs 4` must reproduce the `--jobs 1` results exactly —
//! every per-seed metric sample, the scheduled-event count, every
//! flight-recorder byte and, built with `--features profile`, every byte of
//! the merged engine profile.
//!
//! The grid covers the three regimes the retired wall-clock suite
//! (`bench_baseline`) cross-checked at `--jobs 1` against `--jobs N` on every
//! run: a leaf–spine DCTCP ± TLT mix, a leaf–spine DCQCN+SACK / HPCC mix and
//! a single-switch incast. This test is that check, at a size that runs in
//! about two seconds in a debug build.

use std::sync::OnceLock;

use bench::plan::{PlanOutput, RunPlan};
use bench::runner::{self, SchemeResult, TcpVariant};
use dcsim::small_single_switch;
use netstats::Metric;
use telemetry::TraceEvent;
use transport::TransportKind;
use workload::{incast_burst, standard_mix, FlowSizeCdf, MixParams};

/// A 24-host, three-rack leaf–spine mix of short (cache-follower) flows:
/// small, but every cell crosses ECMP, the fabric queues and, for its
/// incasts, one congested ToR port.
fn tiny_mix(seed: u64) -> MixParams {
    MixParams {
        hosts: 24,
        tors: 3,
        cores: 2,
        bg_flows: 40,
        incast_senders: 23,
        incast_flows_per_sender: 4,
        seed,
        ..MixParams::reduced(40)
    }
}

fn mix_flows(seed: u64) -> Vec<dcsim::FlowSpec> {
    standard_mix(&FlowSizeCdf::cache_follower(), tiny_mix(seed))
}

/// Every regime ± TLT: two seeds per mix cell, three per incast cell.
fn grid(jobs: usize) -> RunPlan<'static> {
    let mut plan = RunPlan::sized(jobs, 3);
    let mix = tiny_mix(1);
    for v in [TcpVariant::Baseline, TcpVariant::Tlt] {
        plan.scheme_seeds(
            format!("mix/DCTCP/{}", v.label()),
            2,
            runner::tcp_cfg(&mix, TransportKind::Dctcp, v, false),
            mix_flows,
        );
    }
    for kind in [TransportKind::DcqcnSack, TransportKind::Hpcc] {
        for tlt in [false, true] {
            plan.scheme_seeds(
                format!("mix/{}{}", kind.name(), if tlt { "/+TLT" } else { "" }),
                2,
                runner::roce_cfg(&mix, kind, tlt, false),
                mix_flows,
            );
        }
    }
    let p = MixParams::reduced(1);
    for kind in [TransportKind::Tcp, TransportKind::Dctcp] {
        for v in [TcpVariant::Baseline, TcpVariant::Tlt] {
            plan.scheme(
                format!("incast/{}/{}", kind.name(), v.label()),
                runner::tcp_cfg(&p, kind, v, false).with_topology(small_single_switch(9)),
                |s| incast_burst(24, 8, 16_000, s),
            );
        }
    }
    plan
}

const JOBS_RUN: usize = 6 * 2 + 4 * 3;

/// The grid at `--jobs 1` and at `--jobs 4`, traced, run once and shared by
/// every test below.
fn runs() -> &'static (PlanOutput, PlanOutput) {
    static RUNS: OnceLock<(PlanOutput, PlanOutput)> = OnceLock::new();
    RUNS.get_or_init(|| {
        let run = |jobs| grid(jobs).capture_trace(None).run_detailed();
        (run(1), run(4))
    })
}

fn all_metrics(r: &SchemeResult) -> [&Metric; 12] {
    [
        &r.fg_p999_ms,
        &r.fg_p99_ms,
        &r.bg_avg_ms,
        &r.bg_goodput_gbps,
        &r.timeouts_per_1k,
        &r.pause_per_1k,
        &r.pause_frac,
        &r.important_frac,
        &r.important_loss,
        &r.clocking_kb,
        &r.max_queue_kb,
        &r.median_queue_kb,
    ]
}

#[test]
fn jobs4_matches_jobs1_metrics() {
    let (seq, par) = runs();
    assert_eq!(seq.jobs_run, JOBS_RUN);
    assert_eq!(seq.workers, 1);
    assert!(par.workers > 1);
    assert!(seq.events_scheduled > 0);
    assert_eq!(seq.events_scheduled, par.events_scheduled);
    assert_eq!(seq.results.len(), par.results.len());
    for (a, b) in seq.results.iter().zip(&par.results) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.events_scheduled, b.events_scheduled, "{}", a.name);
        for (ma, mb) in all_metrics(a).iter().zip(all_metrics(b)) {
            // Exact per-seed sample equality, not just equal means: the
            // parallel fold must replay the sequential accumulation order.
            assert_eq!(ma.values(), mb.values(), "metric diverged for {}", a.name);
        }
    }
    // Every cell ran, and every +TLT cell marked packets.
    for r in &seq.results {
        assert!(r.events_scheduled > 0, "{} ran nothing", r.name);
        if r.name.contains("+TLT") {
            assert!(r.important_frac.mean() > 0.0, "{} marked nothing", r.name);
        }
    }
}

#[test]
fn jobs4_matches_jobs1_trace_bytes() {
    let (seq, par) = runs();
    assert!(!seq.trace.is_empty());
    assert!(
        seq.trace == par.trace,
        "flight-recorder bytes differ between --jobs 1 and --jobs 4"
    );

    // The merged trace is valid JSONL in plan order: one run_start/run_end
    // bracket per (scheme, seed) job, every line parseable.
    let text = std::str::from_utf8(&seq.trace).expect("trace is utf-8");
    let mut starts = 0;
    let mut ends = 0;
    for line in text.lines() {
        let (_, ev) = TraceEvent::from_jsonl(line)
            .unwrap_or_else(|| panic!("unparseable trace line: {line}"));
        match ev {
            TraceEvent::RunStart { .. } => starts += 1,
            TraceEvent::RunEnd { .. } => ends += 1,
            _ => {}
        }
    }
    assert_eq!(starts, JOBS_RUN, "one run_start per (scheme, seed) job");
    assert_eq!(ends, JOBS_RUN, "one run_end per (scheme, seed) job");
}

#[test]
#[cfg(feature = "profile")]
fn jobs4_matches_jobs1_profile_bytes() {
    let (seq, par) = runs();
    let a = seq
        .profile
        .as_ref()
        .expect("profile feature is on")
        .to_json();
    let b = par
        .profile
        .as_ref()
        .expect("profile feature is on")
        .to_json();
    assert!(a.contains("event_exec/deliver"));
    assert!(a == b, "profile JSON differs between --jobs 1 and --jobs 4");
}
