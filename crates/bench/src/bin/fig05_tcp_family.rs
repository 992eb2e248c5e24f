//! Figure 5: FCT for TCP and DCTCP under the standard mix.
//!
//! Reproduces the paper's comparison of {4 ms RTO_min baseline, TLP,
//! 200 μs RTO_min, TLT} with and without PFC, reporting the 99.9%-ile FCT
//! of foreground incast flows and the average FCT of background flows.
//!
//! Paper's headline numbers (full scale): DCTCP baseline fg p99.9 ≈ 13 ms;
//! +PFC ≈ 2.1 ms but bg avg 19.3 → 48.8 ms; +TLT ≈ 80.9% lower fg p99.9
//! than baseline with only a slight bg increase.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table, TcpVariant, BG_AVG, FG_P99, FG_P999, TO_1K};
use transport::TransportKind;
use workload::FlowSizeCdf;

fn main() {
    let (args, mut outs) = Args::parse();
    let cdf = FlowSizeCdf::web_search();
    let p = args.mix();

    let mut plan = RunPlan::new(&args);
    for kind in [TransportKind::Dctcp, TransportKind::Tcp] {
        for pfc in [false, true] {
            for v in TcpVariant::ALL {
                let name = format!(
                    "{}{} {}",
                    kind.name(),
                    if pfc { "+PFC" } else { "" },
                    v.label()
                );
                plan.scheme(
                    name,
                    runner::tcp_cfg(&p, kind, v, pfc),
                    runner::mix_flows(&cdf, p),
                );
            }
        }
    }

    let cols = [FG_P999, FG_P99, BG_AVG, TO_1K];
    let mut t = Table::new(&["scheme"], &cols);
    t.section("Figure 5: TCP/DCTCP FCT (standard mix)", &cols);
    for r in &plan.run(&mut outs) {
        t.row(&[&r.name], r);
    }
    t.finish(outs);
}
