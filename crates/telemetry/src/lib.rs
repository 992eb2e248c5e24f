//! The simulation flight recorder.
//!
//! The TLT paper's claims are causal — important packets survive specific
//! drop and pause episodes — so end-of-run aggregates alone cannot explain a
//! deviating figure. This crate records the packet/flow lifecycle as
//! structured [`TraceEvent`]s flowing into a [`TraceSink`]:
//!
//! - [`CountingSink`]: per-switch and global aggregation (no event storage),
//! - [`BufferSink`]: hand-rolled JSON-lines (no serde) in an in-memory
//!   buffer that is `Send`, so parallel workers can trace privately and
//!   hand bytes back for an ordered merge (`--trace`),
//! - `Vec<(SimTime, TraceEvent)>`: every event, for tests that read the
//!   run back.
//!
//! Producers hold a [`Tracer`] — a cheap clone-able handle that is a single
//! `Option` check (and no event construction) when tracing is disabled, so
//! instrumented hot paths cost nothing on figure-generating runs.
//!
//! The [`inspect`] module re-reads a JSONL trace and summarizes it into
//! per-switch drop-reason tables, a PFC pause timeline, and a consistency
//! check against the run-end totals the producer declared.
//!
//! Every exported artifact is one [`Artifact`], schema `tlt-metrics/v1`:
//! the [`registry`] counters / gauges / histograms, plus the [`profile`]
//! module's bounded sim-time [`TimeSeries`] and the [`spans`] module's
//! worst-request span trees as optional sections; the [`serve`] module
//! names the per-request SLO keys. Artifacts merge deterministically in
//! plan order, [`diff`] compares two key by key, and [`Artifact::validate`]
//! holds one to its invariants and to the [`schema`]. The [`json`] module is
//! the one JSON reader and string escaper behind all of them, the JSONL
//! codec and the schema.
//!
//! Everything is `std`-only: the crate must build with no registry access.
//!
//! # Examples
//!
//! ```
//! use eventsim::SimTime;
//! use telemetry::{CountingSink, DropWhy, TraceEvent, Tracer};
//!
//! let (tracer, counts) = Tracer::new(CountingSink::default());
//! tracer.emit(SimTime::from_ns(10), || TraceEvent::Drop {
//!     node: 2,
//!     port: 0,
//!     flow: 7,
//!     seq: 1440,
//!     why: DropWhy::Color,
//!     green: false,
//! });
//! assert_eq!(counts.borrow().totals.drops_color, 1);
//!
//! let off = Tracer::off();
//! assert!(!off.is_on()); // emit() closures are never run
//! ```

mod artifact;
pub mod diff;
mod event;
pub mod inspect;
pub mod json;
pub mod profile;
pub mod registry;
pub mod schema;
pub mod serve;
mod sink;
pub mod spans;
mod tracer;
mod validate;

pub use artifact::{Artifact, METRICS_SCHEMA};
pub use event::{
    DropWhy, FaultKind, Phase, PhaseTimes, RtoCause, RtoCauseCounts, TimerKind, TraceEvent,
};
pub use profile::{SeriesBucket, TimeSeries, SERIES_BASE_WINDOW_NS, SERIES_MAX_BUCKETS};
pub use registry::{Hist, Registry};
pub use sink::{BufferSink, CountingSink, NodeCounts, TraceCounts, TraceSink};
pub use spans::{FlowSpan, RequestSpan, StallSpan};
pub use tracer::Tracer;
