//! Parallel execution of (scheme, seed) experiment grids.
//!
//! The paper's evaluation is a grid of *independent* simulations — scheme ×
//! seed × scale — so the harness parallelizes at that granularity instead
//! of inside the (inherently sequential) event loop. A [`RunPlan`]
//! enumerates every (scheme, seed) job up front, executes them across
//! `min(jobs, #jobs)` worker threads via `std::thread::scope`, and folds
//! results back in **deterministic plan order**: per-scheme metrics are
//! accumulated seed-by-seed in enumeration order and flight-recorder
//! buffers are concatenated the same way, so the table, CSV, and trace
//! output is byte-identical under any `--jobs` value.
//!
//! Work distribution is a single shared atomic cursor over the job list —
//! no work stealing, no channels, no dependencies: workers claim the next
//! index until the list is exhausted. Each job traces into its own
//! [`telemetry::BufferSink`] (which is `Send`), so no lock is held while a
//! simulation runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dcsim::{FlowSpec, SimConfig, SimResult};
use telemetry::{Artifact, Registry};

use crate::runner::{self, Args, MixOutcome, Observers, SchemeResult};

/// One scheme of the grid: a label, its config (each job re-seeds a copy)
/// and its per-seed workload builder.
struct SchemeSpec<'a> {
    name: String,
    seeds: u64,
    cfg: SimConfig,
    make_flows: Box<dyn Fn(u64) -> Vec<FlowSpec> + Sync + 'a>,
}

/// What one (scheme, seed) job hands back to the fold.
struct JobOut<T> {
    outcome: MixOutcome,
    trace: Option<Vec<u8>>,
    metrics: Option<Registry>,
    profile: Option<Artifact>,
    value: T,
}

/// Everything a finished plan knows beyond the per-scheme metrics.
pub struct PlanOutput<T> {
    /// Per-scheme cross-seed results, in the order schemes were added.
    pub results: Vec<SchemeResult>,
    /// Concatenated flight-recorder bytes in plan order (empty when tracing
    /// was off). When a global trace file is installed these bytes have
    /// already been appended to it.
    pub trace: Vec<u8>,
    /// Metrics registries of every job, merged in plan order (`None` when
    /// metrics were off). When a global `--metrics` export is installed the
    /// merge has already been folded into it.
    pub metrics: Option<Registry>,
    /// Engine profiles of every job, merged in plan order (`None` when the
    /// profiler was off); byte-identical under any `--jobs` value. When a
    /// global `--profile-out` export is installed the merge has already
    /// been folded into it.
    pub profile: Option<Artifact>,
    /// Simulator events scheduled, summed over every job.
    pub events_scheduled: u64,
    /// Number of (scheme, seed) jobs executed.
    pub jobs_run: usize,
    /// Worker threads actually used.
    pub workers: usize,
    /// What [`RunPlan::run_detailed`]'s per-job closure returned for each
    /// job, in plan order: schemes in insertion order, seeds ascending
    /// within a scheme. Independent of the `--jobs` value.
    pub values: Vec<T>,
}

/// A deterministic parallel experiment plan. See the module docs.
pub struct RunPlan<'a> {
    schemes: Vec<SchemeSpec<'a>>,
    jobs: usize,
    default_seeds: u64,
    capture: Observers,
}

impl<'a> RunPlan<'a> {
    /// A plan using the CLI's `--jobs` / `--seeds` settings.
    pub fn new(args: &Args) -> RunPlan<'a> {
        RunPlan::sized(args.effective_jobs(), args.seeds)
    }

    /// A plan with explicit worker and default-seed counts (tests, and
    /// binaries that size their own grid).
    pub fn sized(jobs: usize, default_seeds: u64) -> RunPlan<'a> {
        assert!(default_seeds >= 1, "a plan needs at least one seed");
        RunPlan {
            schemes: Vec::new(),
            jobs: jobs.max(1),
            default_seeds,
            capture: Observers::NONE,
        }
    }

    /// Attaches the observers `obs` names to every job, whether or not a
    /// global `--trace`, `--metrics` or `--profile-out` export asks for
    /// them, and returns what they capture in [`PlanOutput`] or to the
    /// per-job closure of [`RunPlan::run_detailed`] (determinism tests;
    /// `serve_grid --spans-out` for the ledger).
    pub fn capture(mut self, obs: Observers) -> RunPlan<'a> {
        self.capture = obs;
        self
    }

    /// Adds a scheme over the default seed range; seed `s` runs
    /// `cfg.with_seed(s)` on `make_flows(s)`. Returns its index into
    /// [`RunPlan::run`]'s result vector (schemes come back in insertion
    /// order).
    pub fn scheme(
        &mut self,
        name: impl Into<String>,
        cfg: SimConfig,
        make_flows: impl Fn(u64) -> Vec<FlowSpec> + Sync + 'a,
    ) -> usize {
        let seeds = self.default_seeds;
        self.scheme_seeds(name, seeds, cfg, make_flows)
    }

    /// Adds a scheme with an explicit seed count (some tables average a
    /// different number of runs than the rest of their binary).
    pub fn scheme_seeds(
        &mut self,
        name: impl Into<String>,
        seeds: u64,
        cfg: SimConfig,
        make_flows: impl Fn(u64) -> Vec<FlowSpec> + Sync + 'a,
    ) -> usize {
        assert!(seeds >= 1, "a scheme needs at least one seed");
        self.schemes.push(SchemeSpec {
            name: name.into(),
            seeds,
            cfg,
            make_flows: Box::new(make_flows),
        });
        self.schemes.len() - 1
    }

    /// Number of schemes added so far.
    pub fn len(&self) -> usize {
        self.schemes.len()
    }

    /// Whether no schemes were added.
    pub fn is_empty(&self) -> bool {
        self.schemes.is_empty()
    }

    /// Executes the grid and returns per-scheme results in insertion order.
    pub fn run(self) -> Vec<SchemeResult> {
        self.run_detailed(|_, _, _| ()).results
    }

    /// Executes the grid and returns results plus trace bytes, work
    /// accounting and one value per job. `per_job` is called as
    /// `(scheme name, seed, &result)` on every finished simulation *before*
    /// the raw result is summarized away, so a figure that reads raw flow
    /// records or sample series (a CDF, the serve layer's per-request SLO
    /// join) runs on the same workers as every other job and gets its
    /// values back in [`PlanOutput::values`].
    pub fn run_detailed<T: Send>(
        self,
        per_job: impl Fn(&str, u64, &SimResult) -> T + Sync,
    ) -> PlanOutput<T> {
        // Tracing: the globally installed `--trace` file wins; a forced
        // capture (tests) applies when no file is installed.
        let global = runner::trace_config();
        let metrics_global = runner::METRICS.is_on();
        let obs = Observers {
            trace: global.or(self.capture.trace),
            metrics: metrics_global || self.capture.metrics,
            profile: runner::PROFILE.is_on() || self.capture.profile,
            ledger: self.capture.ledger,
        };

        let jobs: Vec<(usize, u64)> = self
            .schemes
            .iter()
            .enumerate()
            .flat_map(|(i, s)| (1..=s.seeds).map(move |seed| (i, seed)))
            .collect();
        let workers = self.jobs.min(jobs.len()).max(1);

        let run_job = |&(si, seed): &(usize, u64)| -> JobOut<T> {
            let spec = &self.schemes[si];
            let cfg = spec.cfg.clone().with_seed(seed);
            let flows = (spec.make_flows)(seed);
            let (mut res, trace) = runner::buffered_run(&spec.name, cfg, flows, obs);
            let metrics = res.metrics.take();
            let profile = res.profile.take();
            let value = per_job(&spec.name, seed, &res);
            JobOut {
                outcome: MixOutcome::from_result(res),
                trace,
                metrics,
                profile,
                value,
            }
        };

        // One slot per job; workers fill slots, the fold below reads them
        // in plan order so the output is independent of completion order.
        let slots: Vec<Mutex<Option<JobOut<T>>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        if workers == 1 {
            for (slot, job) in slots.iter().zip(&jobs) {
                *slot.lock().unwrap() = Some(run_job(job));
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(idx) else { break };
                        let out = run_job(job);
                        *slots[idx].lock().unwrap() = Some(out);
                    });
                }
            });
        }

        // Deterministic fold: seed order within a scheme, scheme order
        // across the plan, trace buffers concatenated likewise.
        let mut results: Vec<SchemeResult> = self
            .schemes
            .iter()
            .map(|s| SchemeResult {
                name: s.name.clone(),
                ..SchemeResult::default()
            })
            .collect();
        let mut trace = Vec::new();
        let mut merged = obs.metrics.then(Registry::new);
        let mut profile: Option<Artifact> = None;
        let mut values = Vec::with_capacity(jobs.len());
        let mut events_scheduled = 0u64;
        for (slot, &(si, _seed)) in slots.iter().zip(&jobs) {
            let out = slot.lock().unwrap().take().expect("every job completed");
            events_scheduled += out.outcome.agg.events_scheduled;
            results[si].add(&out.outcome);
            if let Some(b) = &out.trace {
                trace.extend_from_slice(b);
            }
            if let (Some(m), Some(r)) = (&mut merged, &out.metrics) {
                m.merge(r);
            }
            if let Some(p) = &out.profile {
                profile.get_or_insert_with(Artifact::new).merge(p);
            }
            values.push(out.value);
        }
        if global.is_some() {
            runner::append_trace(&trace);
        }
        if metrics_global {
            if let Some(m) = &merged {
                runner::METRICS.merge(|doc| doc.reg.merge(m));
            }
        }
        if let Some(p) = &profile {
            runner::PROFILE.merge(|doc| doc.merge(p));
        }
        PlanOutput {
            results,
            trace,
            metrics: merged,
            profile,
            events_scheduled,
            jobs_run: jobs.len(),
            workers,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::small_single_switch;
    use transport::TransportKind;

    const TRACE: Observers = Observers {
        trace: Some(None),
        ..Observers::NONE
    };
    const METRICS: Observers = Observers {
        metrics: true,
        ..Observers::NONE
    };
    const PROFILE: Observers = Observers {
        profile: true,
        ..Observers::NONE
    };

    fn tiny_plan(jobs: usize) -> RunPlan<'static> {
        let mut plan = RunPlan::sized(jobs, 2);
        for (name, tlt) in [("base", false), ("tlt", true)] {
            let p = workload::MixParams::reduced(1);
            plan.scheme(
                name,
                runner::scheme_cfg(&p, TransportKind::Dctcp, tlt, false)
                    .with_topology(small_single_switch(9)),
                |s| workload::incast_burst(16, 8, 8_000, s),
            );
        }
        plan
    }

    #[test]
    fn parallel_fold_matches_sequential() {
        let seq = tiny_plan(1).run_detailed(|_, _, _| ());
        let par = tiny_plan(4).run_detailed(|_, _, _| ());
        assert_eq!(seq.jobs_run, 4);
        assert_eq!(par.jobs_run, 4);
        assert_eq!(seq.events_scheduled, par.events_scheduled);
        assert!(seq.events_scheduled > 0);
        for (a, b) in seq.results.iter().zip(&par.results) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.fg_p99_ms.values(), b.fg_p99_ms.values());
            assert_eq!(a.timeouts_per_1k.values(), b.timeouts_per_1k.values());
            assert_eq!(a.events_scheduled, b.events_scheduled);
        }
    }

    #[test]
    fn captured_traces_are_identical_across_jobs() {
        let seq = tiny_plan(1).capture(TRACE).run_detailed(|_, _, _| ());
        let par = tiny_plan(3).capture(TRACE).run_detailed(|_, _, _| ());
        assert!(!seq.trace.is_empty());
        assert_eq!(seq.trace, par.trace, "trace bytes differ under --jobs");
    }

    #[test]
    fn captured_metrics_are_byte_identical_across_jobs_and_runs() {
        let run = |jobs: usize| {
            tiny_plan(jobs)
                .capture(METRICS)
                .run_detailed(|_, _, _| ())
                .metrics
                .expect("metrics captured")
                .to_json()
        };
        let seq = run(1);
        let par = run(4);
        let again = run(4);
        assert!(!seq.is_empty());
        assert!(seq.contains("rto_cause_"), "RTO attribution exported");
        assert!(
            seq.contains("port_queue_bytes/"),
            "queue histograms exported"
        );
        assert_eq!(seq, par, "metrics JSON differs under --jobs");
        assert_eq!(par, again, "metrics JSON differs across identical runs");
    }

    /// The per-job closure sees every (scheme, seed) job's raw result, and
    /// its values come back in plan order (scheme-major, seeds ascending)
    /// and equal under any worker count.
    #[test]
    fn per_job_values_arrive_in_plan_order_across_jobs() {
        let run = |jobs: usize| {
            tiny_plan(jobs)
                .run_detailed(|name, seed, res| {
                    let fcts: Vec<u64> = res
                        .flows
                        .iter()
                        .filter_map(|f| f.fct().map(|t| t.as_ns()))
                        .collect();
                    (name.to_string(), seed, fcts)
                })
                .values
        };
        let seq = run(1);
        let par = run(4);
        let order: Vec<(&str, u64)> = seq.iter().map(|(n, s, _)| (n.as_str(), *s)).collect();
        assert_eq!(order, [("base", 1), ("base", 2), ("tlt", 1), ("tlt", 2)]);
        assert!(seq.iter().all(|(_, _, fcts)| !fcts.is_empty()));
        assert_eq!(seq, par, "per-job values differ under --jobs");
    }

    /// The acceptance bar for the engine profiler: the plan-order fold
    /// makes the profile export byte-identical under any worker
    /// count, and the per-kind accounting covers every scheduled event.
    #[test]
    fn plan_profiles_are_byte_identical_across_jobs_and_account_all_events() {
        assert!(tiny_plan(1).run_detailed(|_, _, _| ()).profile.is_none());
        let run = |jobs: usize| tiny_plan(jobs).capture(PROFILE).run_detailed(|_, _, _| ());
        let seq = run(1);
        let par = run(4);
        let p = seq.profile.as_ref().expect("the profiler is attached");
        // The profiler counts actual queue pushes; `events_scheduled` counts
        // logical schedules (sequence reservations). Lazy timer re-arming
        // keeps superseded deadlines out of the queue entirely, so pushes
        // can only be fewer, never more.
        assert!(
            p.reg.counter("events_scheduled_total") <= seq.events_scheduled,
            "profiler counted more queue pushes than logical schedules"
        );
        assert_eq!(
            p.reg.counter("events_executed_total") + p.reg.counter("events_cancelled_total"),
            p.reg.counter("events_scheduled_total")
        );
        let a = p.to_json();
        let b = par.profile.as_ref().unwrap().to_json();
        assert!(a.contains("\"series\""));
        assert!(a.contains("event_sched/deliver"));
        assert_eq!(a, b, "profile JSON differs under --jobs");
        // And it round-trips through its own parser.
        let parsed = Artifact::parse(&a).expect("self-parse");
        assert_eq!(parsed.to_json(), a);
    }

    #[test]
    fn captured_metrics_round_trip_and_merge_count_all_jobs() {
        let out = tiny_plan(2).capture(METRICS).run_detailed(|_, _, _| ());
        let merged = out.metrics.expect("metrics captured");
        let parsed = Artifact::parse(&merged.to_json()).expect("self-parse");
        assert_eq!(parsed.reg, merged, "JSON round trip is lossless");
        // The merged registry sums every (scheme, seed) job: RTO counts
        // across all jobs equal the plan's per-scheme totals.
        let total: u64 = out
            .results
            .iter()
            .map(|r| r.timeouts_total.values().iter().sum::<f64>() as u64)
            .sum();
        assert_eq!(merged.counter("timeouts"), total);
        assert!(merged.counter("data_pkts_sent") > 0);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn zero_seeds_rejected() {
        let _ = RunPlan::sized(1, 0);
    }
}
