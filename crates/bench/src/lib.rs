//! Benchmark harness for regenerating the TLT paper's tables and figures.
//!
//! Each `fig*`/`tab*` binary reproduces one table or figure of the paper's
//! evaluation (§7 and Appendix B); the shared [`runner`] module provides
//! argument parsing (`--full` or `--quick`, `--seeds N`, `--jobs N`,
//! `--out file.csv`), the scheme/variant builders, and the figure
//! [`runner::Table`], while [`plan`] executes the (scheme, seed) grid across
//! worker threads with a deterministic fold (output is byte-identical under
//! any `--jobs` value). [`profiler`] stamps every exported artifact with
//! provenance metadata, and [`benchcmp`] diffs two such exports key by key
//! (informational; speed is measured by the repo benchmark under
//! `benchmark/`). DESIGN.md carries the experiment index; EXPERIMENTS.md
//! records paper-vs-measured values.
//!
//! A binary declares only its grid and its columns. The grid is one
//! [`plan::RunPlan`] scheme per cell: a label, a [`dcsim::SimConfig`] value
//! (each seed runs a re-seeded copy) and a per-seed workload. The columns
//! are [`runner::Col`]s from the runner's catalogue; the [`runner::Table`]
//! prints each section and row and writes the `--out` CSV from the same
//! list, so every metric is named once:
//!
//! ```no_run
//! use bench::plan::RunPlan;
//! use bench::runner::{self, Args, Table, FG_P999, IMP_FRAC};
//! use transport::TransportKind;
//! use workload::FlowSizeCdf;
//!
//! let args = Args::parse();
//! let cdf = FlowSizeCdf::web_search();
//! let p = args.mix();
//! let mut plan = RunPlan::new(&args);
//! for tlt in [false, true] {
//!     let cfg = runner::scheme_cfg(&p, TransportKind::Dctcp, tlt, false);
//!     plan.scheme(if tlt { "DCTCP+TLT" } else { "DCTCP" }, cfg, runner::mix_flows(&cdf, p));
//! }
//! let cols = [FG_P999, IMP_FRAC];
//! let mut t = Table::new(&args, &["scheme"], &cols);
//! t.section("DCTCP vs DCTCP+TLT", &cols);
//! for r in &plan.run() {
//!     t.row(&[&r.name], r);
//! }
//! t.finish();
//! ```
//!
//! Run any experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p bench --bin fig05_tcp_family
//! cargo run --release -p bench --bin fig05_tcp_family -- --full --seeds 5
//! cargo run --release -p bench --bin fig05_tcp_family -- --jobs 8
//! ```
//!
//! `ci/figures/` holds every `fig*`/`tab*` binary's and `scenario_faults`'
//! `--quick` stdout and CSV; `bash ci/figures.sh target/release <dir>`
//! writes the same set for a `diff -r`.

pub mod benchcmp;
pub mod plan;
pub mod profiler;
pub mod runner;
