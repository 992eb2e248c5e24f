//! Figure 12: Redis SET incast — 99%-ile response time vs request count.
//!
//! Emulates the §7.3 testbed: an HTTP client fans requests over 8 web
//! servers; each request triggers a 32 kB SET into one cache node over a
//! persistent connection, so the cache link sees an incast of up to 180
//! flows. The paper: (DC)TCP response times blow up (timeouts) with high
//! variance as the fan-in grows; with TLT they stay steady (~0.2–4.4 ms),
//! up to 91.7% (TCP) / 91.5% (DCTCP) lower at the max.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Scale, Table, FG_P99};
use dcsim::small_single_switch;
use transport::TransportKind;
use workload::{cache_requests, MixParams};

const SCHEMES: [(TransportKind, bool); 4] = [
    (TransportKind::Tcp, false),
    (TransportKind::Tcp, true),
    (TransportKind::Dctcp, false),
    (TransportKind::Dctcp, true),
];

fn main() {
    let (args, mut outs) = Args::parse();
    let counts: Vec<usize> = if args.scale == Scale::Quick {
        vec![60, 180]
    } else {
        vec![20, 60, 100, 140, 180]
    };
    let p = MixParams::reduced(1); // only for link params

    let mut plan = RunPlan::new(&args);
    for &n in &counts {
        for (kind, tlt) in SCHEMES {
            plan.scheme(
                "",
                runner::scheme_cfg(&p, kind, tlt, false).with_topology(small_single_switch(9)),
                move |s| cache_requests(n, 8, 32_000, s),
            );
        }
    }
    let results = plan.run(&mut outs);

    let mut t = Table::new(
        &[
            "requests",
            "tcp_p99_ms",
            "tcp_tlt_p99_ms",
            "dctcp_p99_ms",
            "dctcp_tlt_p99_ms",
        ],
        &[],
    );
    runner::print_header(
        "Figure 12: 99% response time (ms) vs concurrent 32kB SETs",
        &["TCP", "TCP+TLT", "DCTCP", "DCTCP+TLT"],
    );
    for (n, rs) in counts.iter().zip(results.chunks(SCHEMES.len())) {
        t.across(n, &[n], rs, FG_P99);
    }
    t.finish(outs);
}
