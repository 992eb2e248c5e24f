//! Recovery under injected failures: link flaps, bursty corruption, and
//! PFC pause storms, across the five transport schemes with and without
//! TLT.
//!
//! The paper's §5 draws a sharp boundary: TLT eliminates *congestion*
//! timeouts but deliberately does not recover *non-congestion* losses
//! (flaps, corruption), which fall back to the transport. This scenario
//! suite makes that boundary measurable: a synchronized incast supplies
//! the congestion-timeout regime while a fault schedule injects the
//! non-congestion failure, and the table reports how each scheme recovered
//! (RTO count, fast retransmissions, down-link drops, post-fault recovery
//! time, and foreground tail FCT).
//!
//! Scenarios (single switch, 49 incast senders + 1 bulk sender):
//! - `flap`: the bulk sender's NIC link drops for 5 μs (well under the
//!   40 μs base RTT) mid-transfer — short enough that the hole it punches
//!   in the stream is filled by fast retransmit, never an RTO.
//! - `burst`: Gilbert–Elliott bursty corruption on the switch→receiver
//!   downlink — multi-frame loss episodes that hit flow tails.
//! - `storm`: a spurious 200 μs PFC pause storm against the bulk sender's
//!   switch ingress.

use bench::plan::RunPlan;
use bench::runner::{
    Args, Table, DOWN_DROPS, FAST_RTX, FG_P99, FG_P999, RECOVERY, RTO, WIRE_DROPS,
};
use dcsim::{small_single_switch, FlowSpec, SimConfig};
use eventsim::SimTime;
use faults::FaultSchedule;
use netsim::switch::EcnConfig;
use transport::TransportKind;

/// Incast fan-in degree (hosts 1..=SENDERS each send two 8 kB flows).
const SENDERS: usize = 48;
/// The bulk background sender's host index.
const BULK: usize = SENDERS + 1;
/// Total hosts: receiver + incast senders + bulk sender.
const HOSTS: usize = SENDERS + 2;

/// The five transport schemes of the paper's evaluation.
pub const KINDS: [(&str, TransportKind); 5] = [
    ("tcp", TransportKind::Tcp),
    ("dctcp", TransportKind::Dctcp),
    ("hpcc", TransportKind::Hpcc),
    ("dcqcn-gbn", TransportKind::DcqcnGbn),
    ("dcqcn-irn", TransportKind::DcqcnIrn),
];

/// The failure scenarios. Node numbering in `small_single_switch`: the
/// switch is node 0 and host index `k` is node `k + 1`; switch port `k`
/// faces host `k`.
pub fn scenarios() -> Vec<(&'static str, FaultSchedule)> {
    vec![
        (
            "flap",
            FaultSchedule::new().link_flap(
                SimTime::from_us(400),
                BULK as u32 + 1,
                0,
                SimTime::from_us(5),
            ),
        ),
        (
            "burst",
            FaultSchedule::new().burst_loss(SimTime::ZERO, 0, 0, 0.002, 8.0, 0.5),
        ),
        (
            "storm",
            FaultSchedule::new().pause_storm(
                SimTime::from_us(200),
                0,
                BULK as u32,
                SimTime::from_us(200),
            ),
        ),
    ]
}

/// The incast recipe of the engine's timeout-regime test: a 800 kB shared
/// buffer that 96 synchronized 8 kB flows overflow, so baseline transports
/// take RTOs and TLT does not.
pub fn scenario_cfg(kind: TransportKind, tlt: bool, faults: FaultSchedule) -> SimConfig {
    let mut cfg = if kind.is_roce() {
        SimConfig::roce_family(kind)
    } else {
        SimConfig::tcp_family(kind)
    };
    cfg = cfg.with_topology(small_single_switch(HOSTS));
    cfg.switch.buffer_bytes = 800_000;
    if kind == TransportKind::Dctcp {
        cfg.switch.ecn = EcnConfig::Threshold { k: 100_000 };
    }
    if tlt {
        cfg = cfg.with_tlt();
        cfg.switch.color_threshold = Some(150_000);
    }
    cfg.with_faults(faults)
}

/// Synchronized incast (two 8 kB foreground flows per sender) plus one
/// 2 MB bulk background flow — the traffic every scenario runs.
pub fn scenario_flows() -> Vec<FlowSpec> {
    let mut v: Vec<FlowSpec> = (1..=SENDERS)
        .flat_map(|s| {
            [
                FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true),
                FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true),
            ]
        })
        .collect();
    v.push(FlowSpec::new(BULK, 0, 2_000_000, SimTime::ZERO, false));
    v
}

fn main() {
    let args = Args::parse();

    let mut plan = RunPlan::new(&args);
    let scenarios = scenarios();
    for (scenario, faults) in &scenarios {
        for (tname, kind) in KINDS {
            for tlt in [false, true] {
                plan.scheme(
                    format!("{scenario}/{tname}{}", if tlt { "+tlt" } else { "" }),
                    scenario_cfg(kind, tlt, faults.clone()),
                    |_s| scenario_flows(),
                );
            }
        }
    }
    let results = plan.run();

    let cols = [
        RTO,
        FAST_RTX,
        DOWN_DROPS,
        WIRE_DROPS,
        RECOVERY,
        FG_P99.head("fg p99 ms"),
        FG_P999.head("fg p999 ms"),
    ];
    let mut t = Table::new(&args, &["scenario", "scheme"], &cols);
    for ((scenario, _), cell) in scenarios.iter().zip(results.chunks(2 * KINDS.len())) {
        t.section(&format!("Recovery under failure: {scenario}"), &cols);
        for r in cell {
            t.row(&[scenario, &r.name], r);
        }
    }
    t.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::Engine;

    /// The headline acceptance check: in the link-flap scenario, TLT-enabled
    /// TCP completes with zero RTO-driven retransmissions while baseline TCP
    /// records timeouts — the flap is recovered by fast retransmit, the
    /// congestion timeouts by TLT.
    #[test]
    fn flap_scenario_tlt_tcp_has_zero_rtos_baseline_does_not() {
        let faults = scenarios()
            .into_iter()
            .find(|(n, _)| *n == "flap")
            .unwrap()
            .1;
        let run = |tlt: bool| {
            let cfg = scenario_cfg(TransportKind::Tcp, tlt, faults.clone());
            Engine::new(cfg, scenario_flows()).run()
        };
        let base = run(false);
        let tlt = run(true);
        assert!(
            base.agg.timeouts > 0,
            "baseline TCP should take congestion timeouts in the incast"
        );
        assert_eq!(tlt.agg.timeouts, 0, "TLT TCP must not take a single RTO");
        assert!(
            tlt.agg.down_drops > 0,
            "the flap actually destroyed frames under TLT too"
        );
        assert!(
            tlt.flows.iter().all(|f| f.end.is_some()),
            "every TLT flow completes despite the flap"
        );
    }

    /// Forensics acceptance over the whole grid: every RTO any (scenario,
    /// scheme) cell takes is attributed — one forensic record per timeout,
    /// per-cause counts summing to the RTO total, and never `Unknown`.
    #[test]
    fn every_rto_in_the_suite_has_a_known_root_cause() {
        use telemetry::RtoCause;
        for (scenario, faults) in scenarios() {
            for (tname, kind) in KINDS {
                for tlt in [false, true] {
                    let cfg = scenario_cfg(kind, tlt, faults.clone()).with_seed(1);
                    let res = Engine::new(cfg, scenario_flows()).run();
                    let cell = format!("{scenario}/{tname}{}", if tlt { "+tlt" } else { "" });
                    assert_eq!(
                        res.forensics.len() as u64,
                        res.agg.timeouts,
                        "{cell}: one forensic record per RTO"
                    );
                    assert_eq!(
                        res.agg.rto_causes.total(),
                        res.agg.timeouts,
                        "{cell}: per-cause counts must sum to the RTO total"
                    );
                    assert_eq!(
                        res.agg.rto_causes.get(RtoCause::Unknown),
                        0,
                        "{cell}: every RTO must carry a known root cause"
                    );
                }
            }
        }
    }
}
