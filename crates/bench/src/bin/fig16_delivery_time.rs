//! Figure 16: CDF of segment delivery time (DCTCP vs DCTCP+TLT).
//!
//! Delivery time = first transmission of a segment until its cumulative
//! acknowledgement, including all retransmissions. The paper: TLT cuts the
//! 99%-ile by 22.8% and the 99.9%-ile by 57.6% — loss *recovery* is timely,
//! not just loss detection.

use bench::runner::{self, Args, Table};

use transport::TransportKind;
use workload::FlowSizeCdf;

fn main() {
    let args = Args::parse();
    let cdf = FlowSizeCdf::web_search();
    let p = args.mix();
    let flows = runner::mix_flows(&cdf, p);
    let mut t = Table::new(&args, &["scheme", "delivery_us", "quantile"], &[]);

    println!("== Figure 16: segment delivery time CDF (DCTCP) ==");
    for (name, tlt) in [("DCTCP", false), ("DCTCP+TLT", true)] {
        let mut cfg = runner::scheme_cfg(&p, TransportKind::Dctcp, tlt, false);
        cfg.collect_delivery = true;
        let label = format!("fig16/{}", name.to_lowercase());
        let mut all = netstats::Samples::new();
        for seed in 1..=args.seeds {
            let res = runner::traced_run(&label, cfg.clone().with_seed(seed), flows(seed));
            let mut d = res.agg.delivery.clone();
            for (val, _) in d.cdf(2000) {
                all.push(val);
            }
        }
        println!(
            "{name:>12}: p50={:9.1}us p99={:9.1}us p99.9={:9.1}us max={:9.1}us (n={})",
            all.percentile(50.0).unwrap_or(0.0) * 1e6,
            all.percentile(99.0).unwrap_or(0.0) * 1e6,
            all.percentile(99.9).unwrap_or(0.0) * 1e6,
            all.max() * 1e6,
            all.len()
        );
        for (v, q) in all.cdf(40) {
            t.push(vec![
                name.to_string(),
                format!("{:.2}", v * 1e6),
                format!("{q:.4}"),
            ]);
        }
    }
    t.finish();
}
