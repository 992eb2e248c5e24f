//! Figure 14: the incast microbenchmark.
//!
//! A client pulls 32 kB from each of up to 200 connections spread over 8
//! servers; all responses start synchronized. Panels (a)/(b): 99% FCT vs
//! fan-out for TCP / DCTCP with 4 ms RTO_min, 200 μs RTO_min, and TLT.
//! Panel (c): the FCT CDF at 100 flows. The paper: both baselines hit the
//! timeout cliff; TLT absorbs ≥4× higher fan-in with no timeouts at all
//! and cuts p99 FCT by up to 97.2%.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Scale, Table, TcpVariant, FG_P99};
use dcsim::{small_single_switch, SimConfig};
use netstats::Samples;
use transport::TransportKind;
use workload::incast_burst;

const VARIANTS: [TcpVariant; 3] = [TcpVariant::Baseline, TcpVariant::Us200, TcpVariant::Tlt];
const KINDS: [TransportKind; 2] = [TransportKind::Tcp, TransportKind::Dctcp];

fn cfg(kind: TransportKind, v: TcpVariant) -> SimConfig {
    let p = workload::MixParams::reduced(1);
    runner::tcp_cfg(&p, kind, v, false).with_topology(small_single_switch(9))
}

fn main() {
    let (args, mut outs) = Args::parse();
    let counts: Vec<usize> = if args.scale == Scale::Quick {
        vec![40, 120]
    } else {
        vec![20, 40, 60, 80, 100, 120, 160, 200]
    };

    let mut plan = RunPlan::new(&args);
    for kind in KINDS {
        for &n in &counts {
            for v in VARIANTS {
                plan.scheme("", cfg(kind, v), move |s| incast_burst(n, 8, 32_000, s));
            }
        }
    }
    let results = plan.run(&mut outs);

    let mut t = Table::new(
        &["transport", "flows", "p99_4ms", "p99_200us", "p99_tlt"],
        &[],
    );
    let mut rows = results.chunks(VARIANTS.len());
    for kind in KINDS {
        runner::print_header(
            &format!("Figure 14: 99% FCT (ms) vs #flows, {}", kind.name()),
            &["4ms", "200us", "TLT"],
        );
        for n in &counts {
            let rs = rows.next().expect("one row per count");
            t.across(n, &[&kind.name(), n], rs, FG_P99);
        }
    }

    // Panel (c): CDF of FCT at 100 flows, TCP, pooled over seeds.
    let mut plan = RunPlan::new(&args);
    for v in VARIANTS {
        plan.scheme(
            format!("fig14c/{}", v.label()),
            cfg(TransportKind::Tcp, v),
            |s| incast_burst(100, 8, 32_000, s),
        );
    }
    let out = plan.run_detailed(&mut outs, |_, _, res| {
        let fcts = res.flows.iter().filter_map(|f| f.fct());
        fcts.map(|t| t.as_secs_f64() * 1e3).collect::<Vec<_>>()
    });
    println!("\n== Figure 14c: FCT CDF at 100 flows (TCP) ==");
    let per_variant = out.values.chunks(args.seeds as usize);
    for (v, seeds) in VARIANTS.into_iter().zip(per_variant) {
        let mut fcts = Samples::from_values(seeds.concat());
        println!(
            "{:>8}: p50={:8.3}ms p90={:8.3}ms p99={:8.3}ms max={:8.3}ms",
            v.label(),
            fcts.percentile(50.0).unwrap_or(0.0),
            fcts.percentile(90.0).unwrap_or(0.0),
            fcts.percentile(99.0).unwrap_or(0.0),
            fcts.max()
        );
    }
    t.finish(outs);
}
