//! The discrete-event datacenter network simulation engine.
//!
//! `dcsim` wires the substrates together: topologies and switches from
//! `netsim`, transports from `transport`, the TLT building block from
//! `tlt-core`, and the statistics layer from `netstats`. It owns the event
//! loop: packet serialization and propagation, switch enqueue/dequeue side
//! effects (drops, ECN, PFC pause frames), per-flow timers with
//! generation-based cancellation, flow lifecycle tracking, and scheduled
//! fault injection (link flaps with optional ECMP re-pinning, per-link
//! corruption/degradation from the `faults` crate, PFC pause storms).
//!
//! A simulation is a pure function: `Engine::new(config, flows).run()`
//! returns a [`SimResult`] with per-flow records and aggregate counters.
//! Identical inputs produce identical outputs — the property every
//! experiment binary in `bench` relies on to make the paper's figures
//! reproducible.
//!
//! # Examples
//!
//! ```
//! use dcsim::{Engine, FlowSpec, SimConfig};
//! use transport::TransportKind;
//! use eventsim::SimTime;
//!
//! // Two hosts on one switch, one 80 kB DCTCP flow.
//! let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
//!     .with_topology(dcsim::small_single_switch(2));
//! let flows = vec![FlowSpec::new(0, 1, 80_000, SimTime::ZERO, false)];
//! let result = Engine::new(cfg, flows).run();
//! assert_eq!(result.flows.len(), 1);
//! assert!(result.flows[0].end.is_some(), "flow completed");
//! ```

mod config;
mod engine;
// The three compile-time observers. Always compiled: each names its cargo
// feature inside its own file and is a no-op (zero-sized where it rides in a
// packet or a flow) when that feature is off — DESIGN §16 "Observer seam".
pub mod latency;
pub mod ledger;
mod metrics;
pub mod profile;

pub use config::{
    small_single_switch, ConfigError, FlowSpec, SimConfig, SwitchParams, TltSettings,
};
pub use engine::{AggregateStats, Engine, RtoForensicRec, SimResult};
pub use latency::{FlowLedgerRecord, StallInterval};

// Re-exported so engine users can build fault schedules without naming the
// `faults` crate in their own dependency list.
pub use faults::{FaultAction, FaultEvent, FaultSchedule, LossModel};
