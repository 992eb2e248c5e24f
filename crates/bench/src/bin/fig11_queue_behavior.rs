//! Figure 11: (a) important fraction vs the color threshold K;
//! (b) queue occupancy with and without TLT.
//!
//! DCTCP under the standard mix. The paper: with K = 400 kB, 5.9% of
//! packets are important (smaller K ⇒ more red drops ⇒ more important
//! retransmissions); vanilla DCTCP's max queue reaches 2.18 MB under
//! bursty arrivals while TLT caps the total ~23% lower and keeps the
//! median near 130 kB, under the ECN threshold.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table, IMP_FRAC, MAX_Q, MEDIAN_Q};
use eventsim::SimTime;
use transport::TransportKind;
use workload::FlowSizeCdf;

const KS: [u64; 5] = [200, 300, 400, 500, 600];

fn main() {
    let args = Args::parse();
    let cdf = FlowSizeCdf::web_search();
    let p = args.mix();

    let mut plan = RunPlan::new(&args);
    for k in KS {
        let mut cfg = runner::scheme_cfg(&p, TransportKind::Dctcp, true, false);
        cfg.switch.color_threshold = Some(k * 1000);
        plan.scheme(format!("K={k}kB"), cfg, runner::mix_flows(&cdf, p));
    }
    let panel_a = plan.len();
    for tlt in [false, true] {
        let mut cfg = runner::scheme_cfg(&p, TransportKind::Dctcp, tlt, false);
        cfg.queue_sample_every = Some(SimTime::from_us(20));
        plan.scheme(
            format!("DCTCP{}", if tlt { "+TLT" } else { "" }),
            cfg,
            runner::mix_flows(&cdf, p),
        );
    }
    let results = plan.run();

    // The two panels share two untyped value columns.
    let (v1, v2) = (MAX_Q.csv("value1"), MEDIAN_Q.csv("value2"));
    let mut t = Table::new(&args, &["panel", "scheme_or_k"], &[v1, v2]);
    t.section(
        "Figure 11a: important fraction vs K (DCTCP+TLT)",
        &[IMP_FRAC.csv("value1")],
    );
    for (k, r) in KS.iter().zip(&results[..panel_a]) {
        t.row(&[&"11a", k], r);
    }
    t.section(
        "Figure 11b: queue occupancy (DCTCP vs DCTCP+TLT)",
        &[v1, v2],
    );
    for r in &results[panel_a..] {
        t.row(&[&"11b", &r.name], r);
    }
    t.finish();
}
