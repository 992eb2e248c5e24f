//! Statistics utilities for the experiment harness.
//!
//! Three layers, matching how the paper reports results:
//!
//! - [`Samples`]: a bag of scalar observations with percentiles, mean,
//!   standard deviation, and CDF extraction (Figures 1, 14c, 16);
//! - [`FlowRecord`] / [`summarize_flows`]: per-flow bookkeeping and the
//!   foreground-tail / background-average FCT summaries every bar chart in
//!   §7 uses;
//! - [`Metric`]: aggregation of one quantity across seeds into mean ± std,
//!   the way the paper reports "average and standard deviation of five
//!   runs".

mod flows;
mod percentile;
mod report;

pub use flows::{fanin_latency, summarize_flows, FctSummary, FlowRecord};
pub use percentile::Samples;
pub use report::Metric;
