//! Figure 16: CDF of segment delivery time (DCTCP vs DCTCP+TLT).
//!
//! Delivery time = first transmission of a segment until its cumulative
//! acknowledgement, including all retransmissions. The paper: TLT cuts the
//! 99%-ile by 22.8% and the 99.9%-ile by 57.6% — loss *recovery* is timely,
//! not just loss detection.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table};

use netstats::Samples;
use transport::TransportKind;
use workload::FlowSizeCdf;

const SCHEMES: [(&str, bool); 2] = [("DCTCP", false), ("DCTCP+TLT", true)];

fn main() {
    let args = Args::parse();
    let cdf = FlowSizeCdf::web_search();
    let p = args.mix();
    let mut plan = RunPlan::new(&args);
    for (name, tlt) in SCHEMES {
        let mut cfg = runner::scheme_cfg(&p, TransportKind::Dctcp, tlt, false);
        cfg.collect_delivery = true;
        let label = format!("fig16/{}", name.to_lowercase());
        plan.scheme(label, cfg, runner::mix_flows(&cdf, p));
    }
    // Each seed contributes its 2000-point delivery-time CDF to the pool.
    let out = plan.run_detailed(|_, _, res| {
        let mut d = res.agg.delivery.clone();
        d.cdf(2000).into_iter().map(|(v, _)| v).collect::<Vec<_>>()
    });
    let mut t = Table::new(&args, &["scheme", "delivery_us", "quantile"], &[]);

    println!("== Figure 16: segment delivery time CDF (DCTCP) ==");
    let per_scheme = out.values.chunks(args.seeds as usize);
    for ((name, _), seeds) in SCHEMES.into_iter().zip(per_scheme) {
        let mut all = Samples::from_values(seeds.concat());
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
