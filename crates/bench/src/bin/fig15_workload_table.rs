//! Figure 15 (table): 99.9%-ile foreground FCT across workloads and loads.
//!
//! Three background workloads (Web Search, Web Server, Cache Follower) at
//! loads 0.2–0.5, with 16 kB incast foreground (four flows per host, as in
//! Appendix B). Columns: DCTCP and TCP with {baseline, TLP, 200 μs, TLT},
//! plus DCQCN+SACK(+PFC), DCQCN+IRN, and HPCC(+PFC) baseline vs TLT.
//! The paper: TLT gives the best tail for (DC)TCP and IRN across all
//! workloads/loads; for DCQCN/HPCC with SACK, PFC's tail is competitive
//! but TLT still wins on background FCT.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Scale, Table, TcpVariant};
use transport::TransportKind;
use workload::FlowSizeCdf;

const ROCE: [(TransportKind, bool); 3] = [
    (TransportKind::DcqcnSack, true),
    (TransportKind::DcqcnIrn, false),
    (TransportKind::Hpcc, true),
];

fn main() {
    let args = Args::parse();
    // This table is 14 schemes x 4 loads x 3 workloads; default to 1 seed.
    let seeds = if args.scale == Scale::Full {
        args.seeds
    } else {
        1
    };
    let loads: Vec<f64> = if args.scale == Scale::Quick {
        vec![0.3]
    } else {
        vec![0.2, 0.3, 0.4, 0.5]
    };
    let workloads = [
        ("web_search", FlowSizeCdf::web_search()),
        ("web_server", FlowSizeCdf::web_server()),
        ("cache_follower", FlowSizeCdf::cache_follower()),
    ];

    let mut plan = RunPlan::new(&args);
    for (_wname, cdf) in &workloads {
        for &load in &loads {
            let mut p = args.mix();
            p.load = load;
            p.incast_flows_per_sender = 4;
            p.incast_flow_bytes = 16_000;
            // TCP family.
            for kind in [TransportKind::Dctcp, TransportKind::Tcp] {
                for v in TcpVariant::ALL {
                    plan.scheme_seeds(
                        format!("{} {}", kind.name(), v.label()),
                        seeds,
                        runner::tcp_cfg(&p, kind, v, false),
                        runner::mix_flows(cdf, p),
                    );
                }
            }
            // RoCE family: baseline (+PFC where the paper does) vs TLT.
            for (kind, base_pfc) in ROCE {
                for tlt in [false, true] {
                    let pfc = base_pfc && !tlt;
                    plan.scheme_seeds(
                        format!(
                            "{}{}{}",
                            kind.name(),
                            if pfc { "+PFC" } else { "" },
                            if tlt { "+TLT" } else { "" }
                        ),
                        seeds,
                        runner::roce_cfg(&p, kind, tlt, pfc),
                        runner::mix_flows(cdf, p),
                    );
                }
            }
        }
    }
    let results = plan.run();

    let mut t = Table::new(
        &args,
        &[
            "workload",
            "load",
            "dctcp",
            "dctcp_tlp",
            "dctcp_200us",
            "dctcp_tlt",
            "tcp",
            "tcp_tlp",
            "tcp_200us",
            "tcp_tlt",
            "dcqcn_sack_pfc",
            "dcqcn_sack_tlt",
            "dcqcn_irn",
            "dcqcn_irn_tlt",
            "hpcc_pfc",
            "hpcc_tlt",
        ],
        &[],
    );
    // 8 TCP-family schemes, then 6 RoCE-family schemes, in the order they
    // were enqueued above.
    let mut cells = results.chunks(14);
    for (wname, _cdf) in &workloads {
        for &load in &loads {
            println!("\n== Figure 15: {wname}, load {load:.1} — fg p99.9 (ms) ==");
            let mut row = vec![wname.to_string(), format!("{load:.1}")];
            for r in cells.next().expect("one cell per workload and load") {
                println!("  {:<24}{:8.3}", r.name, r.fg_p999_ms.mean());
                row.push(format!("{:.4}", r.fg_p999_ms.mean()));
            }
            t.push(row);
        }
    }
    t.finish();
}
