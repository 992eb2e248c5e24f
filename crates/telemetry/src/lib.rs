//! The simulation flight recorder.
//!
//! The TLT paper's claims are causal — important packets survive specific
//! drop and pause episodes — so end-of-run aggregates alone cannot explain a
//! deviating figure. This crate records the packet/flow lifecycle as
//! structured [`TraceEvent`]s flowing through pluggable [`TraceSink`]s:
//!
//! - [`RingSink`]: bounded in-memory ring of the most recent events,
//! - [`CountingSink`]: per-switch and global aggregation (no event storage),
//! - [`JsonlSink`]: hand-rolled JSON-lines file/byte output (no serde),
//! - [`BufferSink`]: in-memory JSONL buffer that is `Send`, so parallel
//!   workers can trace privately and hand bytes back for an ordered merge,
//! - [`SeriesSink`]: per-port time series of queue depth, pause state, and
//!   cumulative drops, built from periodic `PortSample` events,
//! - [`FanoutSink`]: duplicates events into several sinks.
//!
//! Producers hold a [`Tracer`] — a cheap clone-able handle that is a single
//! `Option` check (and no event construction) when tracing is disabled, so
//! instrumented hot paths cost nothing on figure-generating runs.
//!
//! The [`inspect`] module re-reads a JSONL trace and summarizes it into
//! per-switch drop-reason tables, a PFC pause timeline, and a consistency
//! check against the run-end totals the producer declared.
//!
//! The [`registry`] module holds the `tlt-metrics/v1` counters / gauges /
//! histograms, and the [`profile`] module the `tlt-profile/v1` engine
//! profiles (per-event-kind tallies plus bounded sim-time [`TimeSeries`]),
//! and the [`serve`] module the `tlt-serve/v1` per-request SLO reports;
//! all merge deterministically in plan order. The [`json`] module is the
//! one JSON reader and string escaper behind all of them, the JSONL codec,
//! and simlint.
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

mod event;
pub mod inspect;
pub mod json;
pub mod profile;
pub mod registry;
mod series;
pub mod serve;
mod sink;
pub mod spans;
mod tracer;

pub use event::{
    DropWhy, FaultKind, Phase, PhaseTimes, RtoCause, RtoCauseCounts, TimerId, TraceEvent,
};
pub use profile::{
    Profile, SeriesBucket, TimeSeries, PROFILE_SCHEMA, SERIES_BASE_WINDOW_NS, SERIES_MAX_BUCKETS,
};
pub use registry::{metrics_summary, Hist, Registry, METRICS_SCHEMA};
pub use series::{PortKey, SeriesPoint, SeriesSink};
pub use serve::{serve_summary, ServeReport, SERVE_SCHEMA};
pub use sink::{
    BufferSink, CountingSink, FanoutSink, JsonlSink, NodeCounts, RingSink, TraceCounts, TraceSink,
};
pub use spans::{spans_summary, FlowSpan, RequestSpan, SpanReport, StallSpan, SPANS_SCHEMA};
pub use tracer::Tracer;
