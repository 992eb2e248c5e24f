//! Figure 7: timeouts per 1 k flows, PAUSE frames per 1 k flows, and the
//! average fraction of time links spend paused.
//!
//! Panel (a) compares loss-recovery variants on the lossy network (DCTCP
//! and TCP); panels (b)/(c) compare PFC-enabled schemes with and without
//! TLT. Paper: DCTCP+TLT nearly eliminates timeouts; TLT reduces PAUSE
//! frames by 27.7% (DCTCP) / 93.2% (TCP) and paused time by 66.7% / 95.8%.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table, TcpVariant, IMP_LOSS, PAUSE_1K, PAUSE_FRAC, TO_1K};
use transport::TransportKind;
use workload::FlowSizeCdf;

fn main() {
    let (args, mut outs) = Args::parse();
    let cdf = FlowSizeCdf::web_search();
    let p = args.mix();

    // Panels (a) and (b)/(c) share one plan so every (scheme, seed) job
    // draws from the same worker pool.
    let mut plan = RunPlan::new(&args);
    for kind in [TransportKind::Dctcp, TransportKind::Tcp] {
        for v in TcpVariant::ALL {
            plan.scheme(
                format!("{} {}", kind.name(), v.label()),
                runner::tcp_cfg(&p, kind, v, false),
                runner::mix_flows(&cdf, p),
            );
        }
    }
    let panel_a = plan.len();
    for (kind, tlt) in [
        (TransportKind::Dctcp, false),
        (TransportKind::Dctcp, true),
        (TransportKind::Tcp, false),
        (TransportKind::Tcp, true),
    ] {
        plan.scheme(
            format!("{}+PFC{}", kind.name(), if tlt { "+TLT" } else { "" }),
            runner::scheme_cfg(&p, kind, tlt, true),
            runner::mix_flows(&cdf, p),
        );
    }
    let results = plan.run(&mut outs);

    // Both panels write one CSV; each leaves the other's columns empty.
    let mut t = Table::new(&["scheme"], &[TO_1K, IMP_LOSS, PAUSE_1K, PAUSE_FRAC]);
    t.section(
        "Figure 7a: timeouts per 1k flows (lossy network)",
        &[TO_1K, IMP_LOSS.head("imp loss rate")],
    );
    for r in &results[..panel_a] {
        t.row(&[&r.name], r);
    }
    t.section(
        "Figure 7b/7c: PAUSE frames and paused time (PFC network)",
        &[PAUSE_1K, PAUSE_FRAC, TO_1K],
    );
    for r in &results[panel_a..] {
        t.row(&[&r.name], r);
    }
    t.finish(outs);
}
