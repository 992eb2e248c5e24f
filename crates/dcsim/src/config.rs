//! Simulation configuration.

use eventsim::SimTime;
use faults::FaultSchedule;
use netsim::switch::EcnConfig;
use netsim::topology::{TopologyError, TopologySpec};
use netsim::LinkSpec;
use tlt_core::ClockingPolicy;
use transport::{RtoMode, TransportKind};

/// One flow to simulate: `bytes` from host index `src` to host index `dst`
/// starting at `start`.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Source host index (into `Topology::hosts()`).
    pub src: usize,
    /// Destination host index.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Arrival time. For a dependent flow (`after` set) this is instead a
    /// *relative* delay after the parent's completion; the engine rewrites
    /// it to the absolute start time when the parent finishes, so
    /// `SimResult` records always carry absolute starts.
    pub start: SimTime,
    /// Foreground (latency-sensitive incast) flow?
    pub fg: bool,
    /// Flow-completion trigger: when `Some(parent)`, this flow starts only
    /// once flow index `parent` completes (plus the `start` delay) instead
    /// of at an absolute time. The application layer (`crates/serve`) uses
    /// this for fan-out/fan-in request chains — a response flow fires when
    /// its query flow is fully delivered. The parent must precede this flow
    /// in the spec list, which rules out cycles by construction.
    pub after: Option<u32>,
}

impl FlowSpec {
    /// Creates a flow spec.
    pub fn new(src: usize, dst: usize, bytes: u64, start: SimTime, fg: bool) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            bytes,
            start,
            fg,
            after: None,
        }
    }

    /// Makes this flow start when flow index `parent` completes, treating
    /// `start` as a relative delay (think time) from that completion.
    pub fn after(mut self, parent: u32) -> FlowSpec {
        self.after = Some(parent);
        self
    }
}

/// Why an engine cannot be built from a [`SimConfig`] and its flows.
///
/// Returned by [`Engine::try_new`](crate::Engine::try_new);
/// [`Engine::new`](crate::Engine::new) panics with the same message. Flows
/// and faults are named by their index in the list they came in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// The topology spec is degenerate.
    Topology(TopologyError),
    /// A flow endpoint is not a host index of the topology.
    HostOutOfRange {
        /// The offending flow.
        flow: usize,
        /// The host index it names.
        host: usize,
        /// Hosts the topology has.
        hosts: usize,
    },
    /// A flow from a host to itself.
    SameEndpoints {
        /// The offending flow.
        flow: usize,
        /// The host index that is both ends.
        host: usize,
    },
    /// [`FlowSpec::after`] names a flow that does not precede this one.
    TriggerNotEarlier {
        /// The offending flow.
        flow: usize,
        /// The flow index it waits for.
        parent: u32,
    },
    /// A fault aimed at a node the topology does not have.
    FaultNodeOutOfRange {
        /// The offending fault-schedule entry.
        fault: usize,
        /// The node it names.
        node: u32,
        /// Nodes the topology has.
        nodes: usize,
    },
    /// A fault aimed at a port its node does not have.
    FaultPortOutOfRange {
        /// The offending fault-schedule entry.
        fault: usize,
        /// The node it names.
        node: u32,
        /// The port it names.
        port: u32,
        /// Ports that node has.
        ports: usize,
    },
    /// A pause storm aimed at a host: only a switch ingress sends PFC.
    StormAtHost {
        /// The offending fault-schedule entry.
        fault: usize,
        /// The host node it names.
        node: u32,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::Topology(e) => write!(f, "{e}"),
            ConfigError::HostOutOfRange { flow, host, hosts } => {
                write!(f, "flow {flow}: host {host} out of range ({hosts} hosts)")
            }
            ConfigError::SameEndpoints { flow, host } => {
                write!(f, "flow {flow}: src == dst (host {host})")
            }
            ConfigError::TriggerNotEarlier { flow, parent } => {
                write!(
                    f,
                    "flow {flow}: completion trigger {parent} must precede it"
                )
            }
            ConfigError::FaultNodeOutOfRange { fault, node, nodes } => {
                write!(f, "fault {fault}: node {node} out of range ({nodes} nodes)")
            }
            ConfigError::FaultPortOutOfRange {
                fault,
                node,
                port,
                ports,
            } => write!(
                f,
                "fault {fault}: port {port} out of range for node {node} ({ports} ports)"
            ),
            ConfigError::StormAtHost { fault, node } => write!(
                f,
                "fault {fault}: pause storms target a switch ingress, node {node} is a host"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<TopologyError> for ConfigError {
    fn from(e: TopologyError) -> ConfigError {
        ConfigError::Topology(e)
    }
}

/// TLT knobs (§5, §7.2 ablations).
#[derive(Clone, Copy, Debug)]
pub struct TltSettings {
    /// Clocking-packet sizing policy (window transports).
    pub clocking: ClockingPolicy,
    /// Periodic marking interval for rate transports (vanilla DCQCN).
    pub every_n: Option<u32>,
}

impl Default for TltSettings {
    fn default() -> Self {
        TltSettings {
            clocking: ClockingPolicy::Adaptive,
            every_n: Some(96),
        }
    }
}

/// Per-switch buffer/marking parameters.
#[derive(Clone, Copy, Debug)]
pub struct SwitchParams {
    /// Shared buffer bytes per switch (paper: 4.5 MB for a 12-port slice of
    /// a Trident II).
    pub buffer_bytes: u64,
    /// Dynamic threshold α.
    pub alpha: f64,
    /// Color-aware dropping threshold K (`None` disables; TLT requires it).
    pub color_threshold: Option<u64>,
    /// ECN discipline.
    pub ecn: EcnConfig,
}

/// Full simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Network shape.
    pub topology: TopologySpec,
    /// Which transport all flows run.
    pub transport: TransportKind,
    /// TLT on/off (and its knobs).
    pub tlt: Option<TltSettings>,
    /// PFC (lossless mode) on all switches.
    pub pfc: bool,
    /// Switch parameters.
    pub switch: SwitchParams,
    /// Payload bytes per packet.
    pub mss: u32,
    /// Initial window in segments (window transports).
    pub init_cwnd_pkts: u32,
    /// RTO mode (window transports; RoCE uses its static RTOs).
    pub rto: RtoMode,
    /// Enable Tail Loss Probe (TCP family).
    pub tlp: bool,
    /// Collect per-segment delivery times (Figure 16; memory-heavy).
    pub collect_delivery: bool,
    /// Base RTT override; computed from the topology when `None`.
    pub base_rtt: Option<SimTime>,
    /// Simulation horizon — flows unfinished by then are recorded as
    /// incomplete.
    pub max_time: SimTime,
    /// Queue-depth sampling period (Figure 11b); `None` disables.
    pub queue_sample_every: Option<SimTime>,
    /// Probability that any packet is corrupted/lost on a wire,
    /// independently per hop — models the *non-congestion* losses (silent
    /// drops, corruption) that §5 declares out of TLT's scope: when they
    /// hit an important packet, performance falls back to the underlying
    /// transport's RTO. Shorthand: the engine expands a nonzero rate into a
    /// uniform per-link Bernoulli loss model in the fault state.
    pub wire_loss_rate: f64,
    /// Timed fault injections (link flaps, per-link degradation, bursty
    /// loss, PFC pause storms), applied on the main event queue.
    pub faults: FaultSchedule,
    /// Per-port telemetry sampling period for the flight recorder's
    /// `PortSample` time series; `None` disables. Only consulted when a
    /// tracer is attached (`Engine::set_tracer`).
    pub trace_sample_every: Option<SimTime>,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's TCP-family setup (§7.1): 40 Gbps leaf–spine with 10 μs
    /// links, 4.5 MB/12-port switches, α = 1, DCTCP ECN threshold 200 kB,
    /// color threshold 400 kB (= BDP) when TLT is enabled, MSS 1440, IW 10,
    /// 4 ms RTO_min.
    pub fn tcp_family(transport: TransportKind) -> SimConfig {
        assert!(!transport.is_roce(), "use roce_family for {transport:?}");
        SimConfig {
            topology: TopologySpec::paper_leaf_spine(SimTime::from_us(10)),
            transport,
            tlt: None,
            pfc: false,
            switch: SwitchParams {
                buffer_bytes: 4_500_000,
                alpha: 1.0,
                color_threshold: None,
                ecn: if transport == TransportKind::Dctcp {
                    EcnConfig::Threshold { k: 200_000 }
                } else {
                    EcnConfig::Off
                },
            },
            mss: 1440,
            init_cwnd_pkts: 10,
            rto: RtoMode::linux_default(),
            tlp: false,
            collect_delivery: false,
            base_rtt: None,
            max_time: SimTime::from_secs(5),
            queue_sample_every: None,
            wire_loss_rate: 0.0,
            faults: FaultSchedule::new(),
            trace_sample_every: None,
            seed: 1,
        }
    }

    /// The paper's RoCE-family setup (§7.1): 1 μs links, RED-style ECN for
    /// DCQCN (K_max = 200 kB), INT for HPCC, color threshold 200 kB when
    /// TLT is enabled, MSS 1000.
    pub fn roce_family(transport: TransportKind) -> SimConfig {
        assert!(transport.is_roce(), "use tcp_family for {transport:?}");
        let ecn = match transport {
            TransportKind::Hpcc => EcnConfig::Off,
            _ => EcnConfig::Red {
                kmin: 50_000,
                kmax: 200_000,
                pmax: 0.01,
            },
        };
        SimConfig {
            topology: TopologySpec::paper_leaf_spine(SimTime::from_us(1)),
            transport,
            tlt: None,
            pfc: false,
            switch: SwitchParams {
                buffer_bytes: 4_500_000,
                alpha: 1.0,
                color_threshold: None,
                ecn,
            },
            mss: 1000,
            init_cwnd_pkts: 10,
            rto: RtoMode::linux_default(),
            tlp: false,
            collect_delivery: false,
            base_rtt: None,
            max_time: SimTime::from_secs(5),
            queue_sample_every: None,
            wire_loss_rate: 0.0,
            faults: FaultSchedule::new(),
            trace_sample_every: None,
            seed: 1,
        }
    }

    /// Enables TLT with the paper's defaults: color threshold = BDP for the
    /// TCP family (400 kB) / 200 kB for RoCE, adaptive clocking, N = 96.
    pub fn with_tlt(mut self) -> SimConfig {
        self.tlt = Some(TltSettings::default());
        if self.switch.color_threshold.is_none() {
            self.switch.color_threshold = Some(if self.transport.is_roce() {
                200_000
            } else {
                400_000
            });
        }
        self
    }

    /// Enables PFC on every switch.
    pub fn with_pfc(mut self) -> SimConfig {
        self.pfc = true;
        self
    }

    /// Replaces the topology.
    pub fn with_topology(mut self, topology: TopologySpec) -> SimConfig {
        self.topology = topology;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Installs a fault schedule.
    pub fn with_faults(mut self, faults: FaultSchedule) -> SimConfig {
        self.faults = faults;
        self
    }
}

/// A small `hosts`-host single-switch topology with paper-style 40 Gbps /
/// 10 μs links — the testbed shape of §7.3–7.4.
pub fn small_single_switch(hosts: usize) -> TopologySpec {
    TopologySpec::SingleSwitch {
        hosts,
        host_link: LinkSpec::new(40_000_000_000, SimTime::from_us(10)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_family_defaults_match_paper() {
        let c = SimConfig::tcp_family(TransportKind::Dctcp);
        assert_eq!(c.mss, 1440);
        assert_eq!(c.switch.buffer_bytes, 4_500_000);
        assert!(matches!(c.switch.ecn, EcnConfig::Threshold { k: 200_000 }));
        assert!(c.switch.color_threshold.is_none());
        let c = c.with_tlt();
        assert_eq!(c.switch.color_threshold, Some(400_000));
    }

    #[test]
    fn roce_family_defaults() {
        let c = SimConfig::roce_family(TransportKind::DcqcnGbn).with_tlt();
        assert_eq!(c.mss, 1000);
        assert_eq!(c.switch.color_threshold, Some(200_000));
        assert!(matches!(c.switch.ecn, EcnConfig::Red { .. }));
        let h = SimConfig::roce_family(TransportKind::Hpcc);
        assert!(matches!(h.switch.ecn, EcnConfig::Off));
    }

    #[test]
    #[should_panic(expected = "roce_family")]
    fn tcp_family_rejects_roce() {
        let _ = SimConfig::tcp_family(TransportKind::Hpcc);
    }

    #[test]
    fn explicit_color_threshold_survives_with_tlt() {
        let mut c = SimConfig::tcp_family(TransportKind::Dctcp);
        c.switch.color_threshold = Some(700_000);
        let c = c.with_tlt();
        assert_eq!(c.switch.color_threshold, Some(700_000));
    }
}
