//! Figure 13: in-memory cache with mixed traffic.
//!
//! 152 foreground 32 kB SETs from 8 web servers compete with one 8 MB
//! background flow into the same cache node. The paper: DCTCP's fg p99 FCT
//! reaches 11.3 ms; DCTCP+TLT achieves 3.39 ms (−71.2%) at the cost of a
//! 5.6% background-goodput dip.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table, BG_GBPS, FG_P99, TO_1K};
use dcsim::small_single_switch;
use transport::TransportKind;
use workload::{cache_mixed, MixParams};

fn main() {
    let (args, mut outs) = Args::parse();
    let p = MixParams::reduced(1); // only for link params

    let mut plan = RunPlan::new(&args);
    for tlt in [false, true] {
        plan.scheme_seeds(
            format!("DCTCP{}", if tlt { "+TLT" } else { "" }),
            args.seeds.max(4), // the paper averages four runs
            runner::scheme_cfg(&p, TransportKind::Dctcp, tlt, false)
                .with_topology(small_single_switch(10)),
            |s| cache_mixed(152, 8, 32_000, 8_000_000, s),
        );
    }

    let cols = [FG_P99, BG_GBPS, TO_1K];
    let mut t = Table::new(&["scheme"], &cols);
    t.section("Figure 13: 152 x 32kB SETs + 8MB bulk flow (DCTCP)", &cols);
    for r in &plan.run(&mut outs) {
        t.row(&[&r.name], r);
    }
    t.finish(outs);
}
