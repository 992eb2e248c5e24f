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
// The observers: the latency ledger and the profiler attach at run time,
// the conservation ledger follows `debug_assertions` — DESIGN §15
// "Observer seam".
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

/// The layout guards: no `dcsim` source over 900 lines, and no cfg naming a
/// cargo feature in `dcsim` or `eventsim` but the benchmark's `profile`
/// alias in `profile.rs`. These two crates declare `profile`, so rustc's
/// `unexpected_cfgs`, which holds every other crate, cannot see such a cfg.
#[cfg(test)]
mod layout {
    use std::path::{Path, PathBuf};

    /// Split so that this file does not match itself.
    const FEATURE: &str = concat!("feature", " =");

    /// Every `.rs` file under `dir`.
    fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("a source directory") {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() {
                sources(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    #[test]
    fn no_dcsim_source_is_over_900_lines_and_one_file_names_a_feature() {
        let dcsim = Path::new(env!("CARGO_MANIFEST_DIR"));
        let (mut capped, mut eventsim) = (Vec::new(), Vec::new());
        sources(&dcsim.join("src"), &mut capped);
        sources(&dcsim.join("../eventsim/src"), &mut eventsim);
        for (i, path) in capped.iter().chain(&eventsim).enumerate() {
            let text = std::fs::read_to_string(path).expect("a readable source");
            let (name, lines) = (path.display(), text.lines().count());
            let in_dcsim = i < capped.len();
            assert!(
                !in_dcsim || lines <= 900,
                "{name}: {lines} lines, over the 900-line cap"
            );
            let alias = path.ends_with("dcsim/src/profile.rs");
            assert!(
                alias || !text.contains(FEATURE),
                "{name}: a cfg names a cargo feature"
            );
        }
    }
}
