//! Figure 18: sensitivity to the incast degree.
//!
//! The standard mix with 2–10 foreground flows per sending host. The
//! paper: TLT's advantage grows with the incast degree — up to 78.9%
//! (HPCC) and 67.0% (TCP) lower fg tail FCT at the highest degrees.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table, BG_AVG, FG_P99};
use transport::TransportKind;
use workload::FlowSizeCdf;

const KINDS: [TransportKind; 2] = [TransportKind::Hpcc, TransportKind::Tcp];
const DEGREES: [u32; 5] = [2, 4, 6, 8, 10];

fn main() {
    let (args, mut outs) = Args::parse();
    let cdf = FlowSizeCdf::web_search();

    let mut plan = RunPlan::new(&args);
    for kind in KINDS {
        for degree in DEGREES {
            for tlt in [false, true] {
                let mut p = args.mix();
                p.incast_flows_per_sender = degree;
                plan.scheme(
                    format!("deg={degree}{}", if tlt { " +TLT" } else { "" }),
                    runner::scheme_cfg(&p, kind, tlt, false),
                    runner::mix_flows(&cdf, p),
                );
            }
        }
    }
    let mut results = plan.run(&mut outs).into_iter();

    let cols = [FG_P99, BG_AVG];
    let mut t = Table::new(&["transport", "degree", "tlt"], &cols);
    for kind in KINDS {
        t.section(
            &format!("Figure 18: incast degree sweep, {}", kind.name()),
            &cols,
        );
        for degree in DEGREES {
            for tlt in [false, true] {
                let r = results.next().expect("one result per scheme");
                t.row(&[&kind.name(), &degree, &tlt], &r);
            }
        }
    }
    t.finish(outs);
}
