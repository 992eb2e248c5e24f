//! Table 1: important-packet loss rate vs the color threshold.
//!
//! (DC)TCP + TLT with K ∈ {400, 500, 600 kB} and foreground share ∈
//! {5%, 10%}. The paper: zero important drops at K = 400 kB for DCTCP; a
//! larger K leaves less reserved room, so the rate climbs (to 3.49e-3 at
//! 600 kB / 10% for DCTCP) — and TCP, which keeps deeper queues, loses
//! slightly more.

use bench::plan::RunPlan;
use bench::runner::{self, Args, Table};
use transport::TransportKind;
use workload::FlowSizeCdf;

const KINDS: [TransportKind; 2] = [TransportKind::Dctcp, TransportKind::Tcp];
const FG_SHARES: [f64; 2] = [0.05, 0.10];
const KS: [u64; 3] = [400, 500, 600];

fn main() {
    let args = Args::parse();
    let cdf = FlowSizeCdf::web_search();

    let mut plan = RunPlan::new(&args);
    for kind in KINDS {
        for fg in FG_SHARES {
            for k in KS {
                let mut p = args.mix();
                p.fg_fraction = fg;
                let mut cfg = runner::scheme_cfg(&p, kind, true, false);
                cfg.switch.color_threshold = Some(k * 1000);
                plan.scheme("", cfg, runner::mix_flows(&cdf, p));
            }
        }
    }
    let results = plan.run();

    let mut t = Table::new(
        &args,
        &["transport", "fg_fraction", "k400", "k500", "k600"],
        &[],
    );
    runner::print_header(
        "Table 1: important-packet loss rate",
        &["K=400kB", "K=500kB", "K=600kB"],
    );
    let mut cells = results.chunks(KS.len());
    for kind in KINDS {
        for fg in FG_SHARES {
            let mut line = format!(
                "{:<28}",
                format!("{}+TLT fg={:.0}%", kind.name(), fg * 100.0)
            );
            let mut row = vec![kind.name().to_string(), format!("{fg:.2}")];
            for r in cells.next().expect("one cell per kind and share") {
                line.push_str(&format!("{:>16.3e}", r.important_loss.mean()));
                row.push(format!("{:.3e}", r.important_loss.mean()));
            }
            println!("{line}");
            t.push(row);
        }
    }
    t.finish();
}
