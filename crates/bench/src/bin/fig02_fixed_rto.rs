//! Figure 2: a fixed 160 μs RTO vs the 4 ms RTO_min baseline.
//!
//! DCTCP, foreground = 15% of volume. The paper: the fixed RTO improves fg
//! p99 FCT by ~41% but costs +113% bg average FCT, 31% bg goodput, and a
//! 51× increase in timeouts — aggressive static timeouts are harmful.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table, BG_AVG, BG_GBPS, FG_P99, TO_1K};
use eventsim::SimTime;
use transport::{RtoMode, TransportKind};
use workload::FlowSizeCdf;

fn main() {
    let (args, mut outs) = Args::parse();
    let cdf = FlowSizeCdf::web_search();
    let mut p = args.mix();
    p.fg_fraction = 0.15;

    let mut plan = RunPlan::new(&args);
    for (name, rto) in [
        ("baseline 4ms RTOmin", RtoMode::linux_default()),
        ("fixed 160us RTO", RtoMode::Fixed(SimTime::from_us(160))),
    ] {
        let mut cfg = runner::scheme_cfg(&p, TransportKind::Dctcp, false, false);
        cfg.rto = rto;
        plan.scheme(name, cfg, runner::mix_flows(&cdf, p));
    }

    let cols = [FG_P99, BG_AVG, BG_GBPS, TO_1K];
    let mut t = Table::new(&["scheme"], &cols);
    t.section(
        "Figure 2: fixed 160us RTO vs 4ms RTO_min (DCTCP, fg=15%)",
        &cols,
    );
    for r in &plan.run(&mut outs) {
        t.row(&[&r.name], r);
    }
    t.finish(outs);
}
