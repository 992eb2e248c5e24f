//! Figure 9: sensitivity to network load (10%–60%).
//!
//! HPCC+PFC ± TLT and DCTCP+PFC ± TLT. The paper: TLT keeps HPCC's fg tail
//! low at every load and improves bg FCT more at higher loads (51.9% at
//! 60%); for DCTCP, TLT helps below ~50% load but the retransmission
//! penalty overtakes the HoL-blocking penalty beyond it.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table, BG_AVG, FG_P99, PAUSE_1K};
use transport::TransportKind;
use workload::FlowSizeCdf;

const PANELS: [(&str, TransportKind); 2] = [
    ("a: HPCC+PFC", TransportKind::Hpcc),
    ("b: DCTCP+PFC", TransportKind::Dctcp),
];
const LOADS: [f64; 6] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];

fn main() {
    let args = Args::parse();
    let cdf = FlowSizeCdf::web_search();

    let mut plan = RunPlan::new(&args);
    for (_panel, kind) in PANELS {
        for load in LOADS {
            for tlt in [false, true] {
                let mut p = args.mix();
                p.load = load;
                plan.scheme(
                    format!("load={load:.1}{}", if tlt { " +TLT" } else { "" }),
                    runner::scheme_cfg(&p, kind, tlt, true),
                    runner::mix_flows(&cdf, p),
                );
            }
        }
    }
    let mut results = plan.run().into_iter();

    let cols = [FG_P99, BG_AVG, PAUSE_1K];
    let mut t = Table::new(&args, &["transport", "load", "tlt"], &cols);
    for (panel, kind) in PANELS {
        t.section(&format!("Figure 9{panel} load sweep"), &cols);
        for load in LOADS {
            for tlt in [false, true] {
                let r = results.next().expect("one result per scheme");
                t.row(&[&kind.name(), &format!("{load:.1}"), &tlt], &r);
            }
        }
    }
    t.finish();
}
