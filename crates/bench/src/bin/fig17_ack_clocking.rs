//! Figure 17: the adaptive important ACK-clocking ablation.
//!
//! DCTCP + TLT + PFC with three clocking policies: always 1 byte, adaptive
//! (the paper's design), always 1 MTU. The paper: 1 MTU recovers fastest
//! but sends ~6.9× more clocking bytes and triggers 1.25× more PAUSE
//! frames; 1 byte is cheap but recovery is ~55× slower at the tail;
//! adaptive gets 1-MTU-like recovery at 1-byte-like overhead.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table, CLOCK_KB, FG_P999, PAUSE_1K};
use tlt_core::ClockingPolicy;
use transport::TransportKind;
use workload::FlowSizeCdf;

fn main() {
    let (args, mut outs) = Args::parse();
    let cdf = FlowSizeCdf::web_search();
    let p = args.mix();

    let mut plan = RunPlan::new(&args);
    for (name, policy) in [
        ("1-Byte", ClockingPolicy::AlwaysOneByte),
        ("adaptive (TLT)", ClockingPolicy::Adaptive),
        ("1-MTU", ClockingPolicy::AlwaysMss),
    ] {
        let mut cfg = runner::scheme_cfg(&p, TransportKind::Dctcp, true, true);
        if let Some(t) = &mut cfg.tlt {
            t.clocking = policy;
        }
        plan.scheme(name, cfg, runner::mix_flows(&cdf, p));
    }

    let cols = [FG_P999, CLOCK_KB, PAUSE_1K];
    let mut t = Table::new(&["policy"], &cols);
    t.section(
        "Figure 17: ACK-clocking policy ablation (DCTCP+TLT+PFC)",
        &cols,
    );
    for r in &plan.run(&mut outs) {
        t.row(&[&r.name], r);
    }
    t.finish(outs);
}
