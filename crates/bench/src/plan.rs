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
//! index until the list is exhausted and return each job's output, tagged
//! with its index, through their join handles. Each job traces into its
//! own [`telemetry::BufferSink`] (which is `Send`), so nothing is shared
//! while a simulation runs but the cursor.
//!
//! The observers come from the CLI ([`RunPlan::new`]) plus whatever
//! [`RunPlan::capture`] adds; what they record folds into the binary's
//! [`Outputs`], which [`RunPlan::run`] takes, so no plan's output can be
//! left out of the files.

use std::sync::atomic::{AtomicUsize, Ordering};

use dcsim::{FlowSpec, SimConfig, SimResult};
use telemetry::{Artifact, Registry};

use crate::runner::{self, Args, MixOutcome, Observers, Outputs, SchemeResult};

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

/// What a finished plan returns beyond what it folded into the
/// [`Outputs`].
pub struct PlanOutput<T> {
    /// Per-scheme cross-seed results, in the order schemes were added.
    pub results: Vec<SchemeResult>,
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
    obs: Observers,
}

impl<'a> RunPlan<'a> {
    /// A plan using the CLI's `--jobs` / `--seeds` settings and attaching
    /// the observers its output flags ask for ([`Args::observers`]).
    pub fn new(args: &Args) -> RunPlan<'a> {
        RunPlan::sized(args.effective_jobs(), args.seeds).capture(args.observers())
    }

    /// A plan with explicit worker and default-seed counts and no
    /// observers (tests, and binaries that size their own grid).
    pub fn sized(jobs: usize, default_seeds: u64) -> RunPlan<'a> {
        assert!(default_seeds >= 1, "a plan needs at least one seed");
        RunPlan {
            schemes: Vec::new(),
            jobs: jobs.max(1),
            default_seeds,
            obs: Observers::NONE,
        }
    }

    /// Also attaches the observers `obs` names to every job. What they
    /// record folds into the [`Outputs`] (trace, metrics, profile) or
    /// reaches the per-job closure of [`RunPlan::run_detailed`] (the
    /// ledger: `serve_grid --spans-out`).
    pub fn capture(mut self, obs: Observers) -> RunPlan<'a> {
        self.obs = self.obs.with(obs);
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

    /// Executes the grid, folds what the observers recorded into `outs`,
    /// and returns per-scheme results in insertion order.
    pub fn run(self, outs: &mut Outputs) -> Vec<SchemeResult> {
        self.run_detailed(outs, |_, _, _| ()).results
    }

    /// Executes the grid, folds what the observers recorded into `outs`,
    /// and returns results plus work accounting and one value per job.
    /// `per_job` is called as `(scheme name, seed, &result)` on every
    /// finished simulation *before* the raw result is summarized away, so a
    /// figure that reads raw flow records or sample series (a CDF, the
    /// serve layer's per-request SLO join) runs on the same workers as
    /// every other job and gets its values back in [`PlanOutput::values`].
    pub fn run_detailed<T: Send>(
        self,
        outs: &mut Outputs,
        per_job: impl Fn(&str, u64, &SimResult) -> T + Sync,
    ) -> PlanOutput<T> {
        let obs = self.obs;
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

        // Each worker returns its (index, output) pairs through its join
        // handle; sorting on the index restores plan order, so the output
        // is independent of completion order.
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, JobOut<T>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(idx) else { break mine };
                            mine.push((idx, run_job(job)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        done.sort_unstable_by_key(|&(idx, _)| idx);

        // Deterministic fold: seed order within a scheme, scheme order
        // across the plan, trace buffers concatenated likewise; metrics and
        // profiles merge into the exports after their provenance stamps.
        let mut results: Vec<SchemeResult> = self
            .schemes
            .iter()
            .map(|s| SchemeResult {
                name: s.name.clone(),
                ..SchemeResult::default()
            })
            .collect();
        let mut values = Vec::with_capacity(jobs.len());
        let mut events_scheduled = 0u64;
        for ((_, out), &(si, _seed)) in done.into_iter().zip(&jobs) {
            events_scheduled += out.outcome.agg.events_scheduled;
            results[si].add(&out.outcome);
            if let Some(b) = &out.trace {
                outs.trace.extend_from_slice(b);
            }
            if let Some(r) = &out.metrics {
                outs.metrics.get_or_insert_with(Registry::new).merge(r);
            }
            if let Some(p) = &out.profile {
                outs.profile.get_or_insert_with(Artifact::new).merge(p);
            }
            values.push(out.value);
        }
        PlanOutput {
            results,
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
        trace: true,
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

    /// `tiny_plan(jobs)` run with `obs` attached: its output and what it
    /// folded into a fresh [`Outputs`].
    fn captured(jobs: usize, obs: Observers) -> (PlanOutput<()>, Outputs) {
        let mut outs = Outputs::default();
        let out = tiny_plan(jobs)
            .capture(obs)
            .run_detailed(&mut outs, |_, _, _| ());
        (out, outs)
    }

    #[test]
    fn parallel_fold_matches_sequential() {
        let (seq, _) = captured(1, Observers::NONE);
        let (par, _) = captured(4, Observers::NONE);
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
        let (_, seq) = captured(1, TRACE);
        let (_, par) = captured(3, TRACE);
        assert!(!seq.trace.is_empty());
        assert_eq!(seq.trace, par.trace, "trace bytes differ under --jobs");
    }

    #[test]
    fn captured_metrics_are_byte_identical_across_jobs_and_runs() {
        let run = |jobs: usize| {
            let (_, outs) = captured(jobs, METRICS);
            outs.metrics.expect("metrics captured").to_json()
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
                .run_detailed(&mut Outputs::default(), |name, seed, res| {
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
        assert!(captured(1, Observers::NONE).1.profile.is_none());
        let (seq, seq_outs) = captured(1, PROFILE);
        let (_, par_outs) = captured(4, PROFILE);
        let p = seq_outs.profile.as_ref().expect("the profiler is attached");
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
        let b = par_outs.profile.as_ref().unwrap().to_json();
        assert!(a.contains("\"series\""));
        assert!(a.contains("event_sched/deliver"));
        assert_eq!(a, b, "profile JSON differs under --jobs");
        // And it round-trips through its own parser.
        let parsed = Artifact::parse(&a).expect("self-parse");
        assert_eq!(parsed.to_json(), a);
    }

    #[test]
    fn captured_metrics_round_trip_and_merge_count_all_jobs() {
        let (out, outs) = captured(2, METRICS);
        let merged = outs.metrics.expect("metrics captured");
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
