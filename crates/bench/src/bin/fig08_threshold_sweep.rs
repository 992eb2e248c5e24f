//! Figure 8: sensitivity to the color-aware dropping threshold K.
//!
//! DCTCP + TLT under the standard mix, sweeping K from 200 kB to 1 MB,
//! without (panel a) and with (panel b) PFC. The paper: without PFC a
//! larger K raises fg tail FCT but lowers bg FCT; beyond ~700 kB important
//! drops start costing timeouts. With PFC, both rise as PAUSE becomes
//! frequent, until extreme HoL blocking reverses the fg trend.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table, BG_AVG, FG_P999, IMP_LOSS, PAUSE_1K};
use transport::TransportKind;
use workload::FlowSizeCdf;

const KS: [u64; 9] = [200, 300, 400, 500, 600, 700, 800, 900, 1000];

fn main() {
    let (args, mut outs) = Args::parse();
    let cdf = FlowSizeCdf::web_search();
    let p = args.mix();

    let mut plan = RunPlan::new(&args);
    for pfc in [false, true] {
        for k in KS {
            let mut cfg = runner::scheme_cfg(&p, TransportKind::Dctcp, true, pfc);
            cfg.switch.color_threshold = Some(k * 1000);
            plan.scheme(format!("K={k}kB"), cfg, runner::mix_flows(&cdf, p));
        }
    }
    let mut results = plan.run(&mut outs).into_iter();

    let cols = [FG_P999, BG_AVG, IMP_LOSS, PAUSE_1K];
    let mut t = Table::new(&["pfc", "k_kb"], &cols);
    for pfc in [false, true] {
        t.section(
            &format!(
                "Figure 8{}: K sweep (DCTCP+TLT{})",
                if pfc { "b" } else { "a" },
                if pfc { "+PFC" } else { "" }
            ),
            &cols,
        );
        for k in KS {
            let r = results.next().expect("one result per scheme");
            t.row(&[&pfc, &k], &r);
        }
    }
    t.finish(outs);
}
