//! Figure 1: CDFs of measured RTT vs computed RTO under the standard mix.
//!
//! DCTCP with RTO_min = 200 μs. The paper's point: even with aggressive
//! minimums, the *estimated* RTO inflates far beyond typical RTTs under
//! bursty traffic — >10% of foreground flows computed RTOs above 1.1 ms
//! while the 90th-percentile RTT was 0.48 ms.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table};

use transport::{RtoMode, TransportKind};
use workload::FlowSizeCdf;

fn main() {
    let args = Args::parse();
    let p = args.mix();
    let mut cfg = runner::tcp_cfg(
        &p,
        TransportKind::Dctcp,
        runner::TcpVariant::Baseline,
        false,
    );
    cfg.rto = RtoMode::microsecond();
    let cdf = FlowSizeCdf::web_search();
    let mut plan = RunPlan::new(&args);
    plan.scheme_seeds("fig01/dctcp-rto200us", 1, cfg, runner::mix_flows(&cdf, p));
    let out = plan.run_detailed(|_, _, res| {
        let a = &res.agg;
        [&a.bg_rtt, &a.bg_rto, &a.fg_rtt, &a.fg_rto].map(Clone::clone)
    });
    let [bg_rtt, bg_rto, mut fg_rtt, mut fg_rto] = out.values.into_iter().next().expect("one job");

    let mut t = Table::new(&args, &["series", "value_us", "quantile"], &[]);
    println!("== Figure 1: RTT vs computed RTO CDFs (DCTCP, RTO_min=200us) ==");
    for (label, mut s) in [
        ("bg_rtt", bg_rtt),
        ("bg_rto", bg_rto),
        ("fg_rtt", fg_rtt.clone()),
        ("fg_rto", fg_rto.clone()),
    ] {
        println!(
            "{label:>8}: n={:<8} p50={:9.1}us p90={:9.1}us p99={:9.1}us max={:9.1}us",
            s.len(),
            s.percentile(50.0).unwrap_or(0.0) * 1e6,
            s.percentile(90.0).unwrap_or(0.0) * 1e6,
            s.percentile(99.0).unwrap_or(0.0) * 1e6,
            s.max() * 1e6,
        );
        for (v, q) in s.cdf(40) {
            t.push(vec![
                label.to_string(),
                format!("{:.2}", v * 1e6),
                format!("{q:.4}"),
            ]);
        }
    }
    // The paper's observation, quantified.
    println!(
        "\nfraction of fg flows with RTO > 1.1ms: {:.1}%  (fg RTT p90 = {:.0}us)",
        100.0 * (1.0 - cdf_at(&mut fg_rto, 1.1e-3)),
        fg_rtt.percentile(90.0).unwrap_or(0.0) * 1e6
    );
    t.finish();
}

/// Empirical CDF value at `x`.
fn cdf_at(s: &mut netstats::Samples, x: f64) -> f64 {
    if s.is_empty() {
        return 1.0;
    }
    // Binary-search-free: count via percentile inversion on the CDF dump.
    let pts = s.cdf(1000);
    for (v, q) in pts {
        if v >= x {
            return q;
        }
    }
    1.0
}
