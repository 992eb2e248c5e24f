//! Benchmark harness for regenerating the TLT paper's tables and figures.
//!
//! Each `fig*`/`tab*` binary reproduces one table or figure of the paper's
//! evaluation (§7 and Appendix B); the shared [`runner`] module provides
//! argument parsing (`--full`, `--quick`, `--seeds N`, `--jobs N`,
//! `--out file.csv`), the scheme/variant builders, and paper-style table
//! printing, while [`plan`] executes the (scheme, seed) grid across worker
//! threads with a deterministic fold (output is byte-identical under any
//! `--jobs` value). [`profiler`] stamps every exported artifact with
//! provenance metadata, and [`benchcmp`] diffs two such exports key by key
//! (informational; speed is measured by the repo benchmark under
//! `benchmark/`). DESIGN.md carries the experiment index; EXPERIMENTS.md
//! records paper-vs-measured values.
//!
//! Run any experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p bench --bin fig05_tcp_family
//! cargo run --release -p bench --bin fig05_tcp_family -- --full --seeds 5
//! cargo run --release -p bench --bin fig05_tcp_family -- --jobs 8
//! ```

pub mod benchcmp;
pub mod plan;
pub mod profiler;
pub mod runner;
