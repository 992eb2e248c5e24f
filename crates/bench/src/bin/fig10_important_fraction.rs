//! Figure 10: fraction of packets marked important vs foreground share.
//!
//! DCTCP + TLT, foreground incast ratio swept 0–20% of volume. The paper:
//! only ~3.3% of packets are important with no foreground traffic, rising
//! with the incast share (short flows mark a higher fraction, and
//! congestion shrinks windows).

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table, FG_P999, IMP_FRAC};
use transport::TransportKind;
use workload::FlowSizeCdf;

const FG_SHARES: [f64; 5] = [0.0, 0.05, 0.10, 0.15, 0.20];

fn main() {
    let (args, mut outs) = Args::parse();
    let cdf = FlowSizeCdf::web_search();

    let mut plan = RunPlan::new(&args);
    for fg_pct in FG_SHARES {
        let mut p = args.mix();
        p.fg_fraction = fg_pct;
        plan.scheme(
            format!("fg={:.0}%", fg_pct * 100.0),
            runner::scheme_cfg(&p, TransportKind::Dctcp, true, false),
            runner::mix_flows(&cdf, p),
        );
    }

    let cols = [IMP_FRAC, FG_P999];
    let mut t = Table::new(&["fg_fraction"], &cols);
    t.section(
        "Figure 10: important-packet fraction vs fg share (DCTCP+TLT)",
        &cols,
    );
    for (fg_pct, r) in FG_SHARES.iter().zip(&plan.run(&mut outs)) {
        t.row(&[&format!("{fg_pct:.2}")], r);
    }
    t.finish(outs);
}
