//! Figure 6: FCT for HPCC and DCQCN (vanilla / +SACK / +IRN).
//!
//! Reproduces the RoCE-family comparison under the standard mix: each
//! scheme with and without PFC, baseline vs TLT (IRN is evaluated without
//! PFC, as in the paper). Reports fg 99.9%-ile and bg average FCT.
//!
//! Paper's headline numbers: TLT cuts HPCC's fg p99.9 by 78.5% (no PFC)
//! and vanilla DCQCN's by 69.1%; with DCQCN+SACK+PFC it cuts bg avg by
//! 21.4% via fewer PAUSE frames.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table, BG_AVG, FG_P99, FG_P999, TO_1K};
use transport::TransportKind;
use workload::FlowSizeCdf;

fn main() {
    let args = Args::parse();
    let cdf = FlowSizeCdf::web_search();
    let p = args.mix();

    let mut plan = RunPlan::new(&args);
    for kind in [
        TransportKind::Hpcc,
        TransportKind::DcqcnIrn,
        TransportKind::DcqcnSack,
        TransportKind::DcqcnGbn,
    ] {
        for tlt in [false, true] {
            // IRN runs without PFC, as in the paper.
            for pfc in [false, true] {
                if pfc && kind == TransportKind::DcqcnIrn {
                    continue;
                }
                let name = format!(
                    "{}{}{}",
                    kind.name(),
                    if pfc { "+PFC" } else { "" },
                    if tlt { "+TLT" } else { "" }
                );
                plan.scheme(
                    name,
                    runner::roce_cfg(&p, kind, tlt, pfc),
                    runner::mix_flows(&cdf, p),
                );
            }
        }
    }

    let cols = [FG_P999, FG_P99, BG_AVG, TO_1K];
    let mut t = Table::new(&args, &["scheme"], &cols);
    t.section("Figure 6: RoCE-family FCT (standard mix)", &cols);
    for r in &plan.run() {
        t.row(&[&r.name], r);
    }
    t.finish();
}
