//! Open-loop serving grid on the fat-tree fabric: scheme × load, with
//! per-request SLO accounting.
//!
//! The paper's testbed chapter (§7.3) argues TLT at the *application*
//! level: a single flow-level RTO stalls the request it belongs to, so the
//! request tail — not the flow tail — is what a service operator pays for.
//! This binary is that experiment at simulation scale: every transport
//! scheme (TCP, DCTCP, DCQCN, DCQCN+IRN, HPCC) with and without TLT serves
//! the same open-loop request stream (Poisson arrivals, fan-out
//! partition–aggregate requests, CDF-drawn response sizes) on a k-ary
//! fat-tree, and each request's latency is judged against an SLO with
//! overruns attributed to RTO forensics.
//!
//! Output: a per-scheme SLO table (p50/p99/p999 request latency,
//! timeout-induced vs other violations, incompletes), a `tlt-serve/v1`
//! artifact via `--serve-out` that `benchcmp` can diff and `trace_inspect
//! --serve` can render, and the usual flow-level FCT table for
//! cross-reference. Accounting memory is bounded: requests fold straight
//! into log-linear histograms, so `--scale k24` (3456 hosts) costs the
//! same per-request memory as `--scale k8` (128 hosts).
//!
//! Bespoke flags on top of the standard harness set:
//!
//! * `--scale k8|k24` — fat-tree degree (default k8);
//! * `--serve-out <file>` — write the merged `tlt-serve/v1` report;
//! * `--workload <name>` — response-size CDF (`web_search`, `web_server`,
//!   `cache_follower`; default `cache_follower`);
//! * `--slo-us N` — per-request SLO in microseconds (default 2000);
//! * `--gap-us N` — mean request inter-arrival gap at load 1x (defaults
//!   per scale);
//! * `--fanout N` — partition–aggregate width of fanned-out requests
//!   (default 32, the incast degree where the paper's baselines start
//!   paying timeouts).
//!
//! Determinism: the request stream is a pure function of (params, seed),
//! accounting runs in the plan's analyze hook, and fragments fold in plan
//! order — the table and the `--serve-out` bytes are identical under any
//! `--jobs` value.

use std::collections::BTreeMap;

use bench::plan::RunPlan;
use bench::profiler::Provenance;
use bench::runner::{self, Args, Scale, Table, FG_P99, FG_P999, TO_1K};
use dcsim::SimConfig;
use eventsim::SimTime;
use netsim::topology::TopologySpec;
use serve::ServeParams;
use telemetry::ServeReport;
use transport::TransportKind;
use workload::FlowSizeCdf;

/// The paper's five schemes, each run with TLT off and on.
const KINDS: [TransportKind; 5] = [
    TransportKind::Tcp,
    TransportKind::Dctcp,
    TransportKind::DcqcnGbn,
    TransportKind::DcqcnIrn,
    TransportKind::Hpcc,
];

/// Registry-safe scheme label (lowercase, `+tlt` suffix).
fn scheme_label(kind: TransportKind, tlt: bool) -> String {
    let base = kind.name().to_lowercase();
    if tlt {
        format!("{base}+tlt")
    } else {
        base
    }
}

/// Family config for `kind` on a k-ary fat-tree: paper link latencies
/// (10 µs TCP family, 1 µs RoCE family), paper buffer/ECN parameters.
fn grid_cfg(kind: TransportKind, tlt: bool, k: usize) -> SimConfig {
    let (mut cfg, latency) = if kind.is_roce() {
        (SimConfig::roce_family(kind), SimTime::from_us(1))
    } else {
        (SimConfig::tcp_family(kind), SimTime::from_us(10))
    };
    cfg = cfg.with_topology(TopologySpec::paper_fat_tree(k, latency));
    if tlt {
        cfg = cfg.with_tlt();
    }
    cfg
}

/// One load level of the grid: a label suffix and an arrival-rate
/// multiplier applied to the base mean gap.
struct Load {
    suffix: &'static str,
    rate: f64,
}

/// Everything that defines one grid invocation.
struct GridSpec {
    k: usize,
    scale: &'static str,
    base: ServeParams,
    loads: Vec<Load>,
    kinds: Vec<TransportKind>,
}

/// Runs the scheme × load × seed grid and folds the per-request SLO
/// accounting in plan order. The third element is the merged `tlt-spans/v1`
/// report — `Some` only when the `ledger` feature is compiled in.
fn run_grid(
    spec: &GridSpec,
    seeds: u64,
    jobs: usize,
) -> (
    Vec<runner::SchemeResult>,
    ServeReport,
    Option<telemetry::SpanReport>,
) {
    // One cell per scheme × load, in plan order: its label, its config and
    // the exact params that generate its request stream.
    let mut cells = Vec::new();
    for load in &spec.loads {
        for &kind in &spec.kinds {
            for tlt in [false, true] {
                let mut p = spec.base.clone();
                p.mean_gap = SimTime::from_secs_f64(p.mean_gap.as_secs_f64() / load.rate);
                let name = format!("{}{}", scheme_label(kind, tlt), load.suffix);
                cells.push((name, grid_cfg(kind, tlt, spec.k), p));
            }
        }
    }
    // The analyze hook regenerates the (cheap) request index from a cell's
    // params to join request ids against the finished run.
    let params_by_scheme: BTreeMap<String, ServeParams> = cells
        .iter()
        .map(|(name, _, p)| (name.clone(), p.clone()))
        .collect();

    // Span-tree side channel: the analyze hook returns only a Registry, so
    // per-cell SpanReports land in a shared map keyed by (scheme, seed) and
    // merge in BTreeMap key order after the run — SpanReport::merge is
    // order-independent, so the export stays byte-identical under any
    // `--jobs` value.
    #[cfg(feature = "ledger")]
    let spans_acc: std::sync::Arc<
        std::sync::Mutex<BTreeMap<(String, u64), telemetry::SpanReport>>,
    > = Default::default();
    #[cfg(feature = "ledger")]
    let spans_in = spans_acc.clone();

    let mut plan = RunPlan::sized(jobs, seeds).analyze(move |name, seed, res| {
        let params = &params_by_scheme[name];
        let wl = serve::generate(params, seed);
        let mut rep = serve::account(name, &wl, res, params.slo);
        // Forensic cross-check denominator: every timeout-attributed SLO
        // violation must be backed by at least one recorded RTO.
        rep.reg
            .inc(&format!("serve_rtos/{name}"), res.forensics.len() as u64);
        #[cfg(feature = "ledger")]
        {
            let sp = serve::account_spans(name, seed, &wl, res, params.slo);
            spans_in
                .lock()
                .expect("spans accumulator")
                .insert((name.to_string(), seed), sp);
        }
        rep.reg
    });
    for (name, cfg, params) in cells {
        plan.scheme(name, cfg, move |s| serve::generate(&params, s).flows);
    }
    let out = plan.run_detailed();
    let mut rep = ServeReport {
        reg: out.analysis.expect("analyze hook installed"),
    };
    rep.reg.set_meta("scale", spec.scale);
    rep.reg
        .set_meta("slo_ns", &spec.base.slo.as_ns().to_string());
    rep.reg.set_meta("workload", spec.base.response_cdf.name());
    #[cfg(feature = "ledger")]
    let spans = {
        let map = std::mem::take(&mut *spans_acc.lock().expect("spans accumulator"));
        let mut sp = telemetry::SpanReport::new();
        for frag in map.values() {
            sp.merge(frag);
        }
        sp.reg.set_meta("scale", spec.scale);
        sp.reg
            .set_meta("slo_ns", &spec.base.slo.as_ns().to_string());
        sp.reg.set_meta("workload", spec.base.response_cdf.name());
        Some(sp)
    };
    #[cfg(not(feature = "ledger"))]
    let spans = None;
    (out.results, verify_forensic_join(rep), spans)
}

/// Cross-checks the timeout join: per scheme, the per-cause breakdown sums
/// exactly to the timeout-violation counter, and no scheme attributes more
/// violations than it recorded RTOs. Aborts loudly on mismatch — a silent
/// inconsistency here would falsify the headline table.
fn verify_forensic_join(rep: ServeReport) -> ServeReport {
    for scheme in rep.schemes() {
        let viol_t = rep.reg.counter(&format!("serve_slo_viol_timeout/{scheme}"));
        let causes: u64 = rep
            .reg
            .counters()
            .filter(|(k, _)| k.starts_with(&format!("serve_viol_cause/{scheme}/")))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(
            causes, viol_t,
            "scheme {scheme}: cause breakdown {causes} != timeout violations {viol_t}"
        );
        let rtos = rep.reg.counter(&format!("serve_rtos/{scheme}"));
        assert!(
            viol_t <= rtos,
            "scheme {scheme}: {viol_t} timeout violations but only {rtos} forensic RTOs"
        );
    }
    rep
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: serve_grid [--scale k8|k24] [--serve-out file.json] [--spans-out file.json] \
         [--perfetto-out file.json] [--workload name] \
         [--slo-us N] [--gap-us N] [--fanout N] [standard harness flags]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn main() {
    // Pre-extract the bespoke flags, hand the rest to the standard parser.
    let mut scale = "k8".to_string();
    let mut serve_out: Option<String> = None;
    let mut spans_out: Option<String> = None;
    let mut perfetto_out: Option<String> = None;
    let mut workload_name = "cache_follower".to_string();
    let mut slo_us: u64 = 2_000;
    let mut gap_us: Option<u64> = None;
    let mut fanout: usize = 32;
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = it.next().unwrap_or_else(|| usage("--scale needs a value")),
            "--serve-out" => {
                serve_out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--serve-out needs a path")),
                )
            }
            "--spans-out" => {
                spans_out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--spans-out needs a path")),
                )
            }
            "--perfetto-out" => {
                perfetto_out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--perfetto-out needs a path")),
                )
            }
            "--workload" => {
                workload_name = it
                    .next()
                    .unwrap_or_else(|| usage("--workload needs a name"))
            }
            "--slo-us" => {
                slo_us = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .unwrap_or_else(|| usage("--slo-us needs a positive number"))
            }
            "--gap-us" => {
                gap_us = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&v| v > 0)
                        .unwrap_or_else(|| usage("--gap-us needs a positive number")),
                )
            }
            "--fanout" => {
                fanout = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 1)
                    .unwrap_or_else(|| usage("--fanout needs a number > 1"))
            }
            "--help" | "-h" => usage(""),
            other => rest.push(other.to_string()),
        }
    }
    let args = match Args::parse_from(rest) {
        Ok(args) => args,
        Err(msg) => usage(&msg),
    };
    args.init_outputs();

    let quick = args.scale == Scale::Quick;
    let cdf = FlowSizeCdf::by_name(&workload_name)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload_name:?}")));
    let (k, hosts, default_gap_us, requests) = match scale.as_str() {
        "k8" => (8, 128, 20, if quick { 64 } else { 256 }),
        // k=24 ≈ 3456 hosts: the bounded-memory smoke scale. Fewer
        // requests per host, same accounting structures.
        "k24" => (24, 3456, 10, if quick { 128 } else { 512 }),
        other => usage(&format!("unknown scale {other:?} (expected k8 or k24)")),
    };
    if fanout >= hosts {
        usage(&format!(
            "--fanout {fanout} must be below the host count {hosts}"
        ));
    }
    let base = ServeParams {
        hosts,
        requests,
        mean_gap: SimTime::from_us(gap_us.unwrap_or(default_gap_us)),
        fanout,
        fanout_fraction: 0.25,
        query_bytes: 1_600,
        response_cdf: cdf,
        think: SimTime::from_us(5),
        slo: SimTime::from_us(slo_us),
    };
    let loads = if quick {
        vec![Load {
            suffix: "",
            rate: 1.0,
        }]
    } else {
        vec![
            Load {
                suffix: "",
                rate: 1.0,
            },
            Load {
                suffix: "@2x",
                rate: 2.0,
            },
        ]
    };
    let spec = GridSpec {
        k,
        scale: if scale == "k24" { "k24" } else { "k8" },
        base,
        loads,
        kinds: KINDS.to_vec(),
    };

    let (results, mut rep, spans) = run_grid(&spec, args.seeds, args.effective_jobs());
    Provenance::deterministic(&args).stamp(&mut rep.reg);
    // The fabric degree is this report's identity; re-pin it over the
    // harness quick/default/full label the provenance stamp wrote.
    rep.reg.set_meta("scale", spec.scale);

    print!("{}", rep.render());
    println!("  forensic cross-check: ok (causes sum to timeout violations, bounded by RTOs)");

    if let Some(sp) = &spans {
        // Runtime conservation gate (release builds included): a nonzero
        // residue would falsify the whole phase table, so abort loudly.
        for scheme in sp.schemes() {
            let r = sp.conservation_residue(&scheme);
            assert_eq!(r, 0, "scheme {scheme}: latency ledger residue {r} ns");
        }
        print!("{}", sp.render());
        println!("  conservation cross-check: ok (sum phases == sum FCT, zero unattributed)");
    } else if spans_out.is_some() || perfetto_out.is_some() {
        eprintln!("error: --spans-out/--perfetto-out need a build with the `ledger` feature");
        std::process::exit(2);
    }

    let cols = [FG_P999, FG_P99, TO_1K];
    let mut t = Table::new(&args, &["scheme"], &cols);
    t.section("flow-level cross-reference (request flows are fg)", &cols);
    for r in &results {
        t.row(&[&r.name], r);
    }
    t.finish();

    if let Some(path) = &serve_out {
        std::fs::write(path, rep.to_json())
            .unwrap_or_else(|e| usage(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if let Some(sp) = &spans {
        if let Some(path) = &spans_out {
            std::fs::write(path, sp.to_json())
                .unwrap_or_else(|e| usage(&format!("cannot write {path}: {e}")));
            eprintln!("wrote {path}");
        }
        if let Some(path) = &perfetto_out {
            std::fs::write(path, sp.to_perfetto())
                .unwrap_or_else(|e| usage(&format!("cannot write {path}: {e}")));
            eprintln!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> GridSpec {
        let mut base = ServeParams::small(16);
        base.requests = 16;
        base.fanout = 3;
        GridSpec {
            k: 4,
            scale: "k4-test",
            base,
            loads: vec![
                Load {
                    suffix: "",
                    rate: 1.0,
                },
                Load {
                    suffix: "@2x",
                    rate: 2.0,
                },
            ],
            kinds: vec![TransportKind::Dctcp],
        }
    }

    /// The acceptance bar: the merged `tlt-serve/v1` report is
    /// byte-identical under different worker counts, covers every scheme ±
    /// TLT, and survives its own parser.
    #[test]
    fn grid_report_is_byte_identical_across_jobs() {
        let (_, seq, _) = run_grid(&tiny_spec(), 1, 1);
        let (_, par, _) = run_grid(&tiny_spec(), 1, 4);
        let a = seq.to_json();
        let b = par.to_json();
        assert_eq!(a, b, "serve report differs under --jobs");
        assert!(a.contains("tlt-serve/v1"));
        let schemes = seq.schemes();
        assert_eq!(
            schemes,
            vec!["dctcp", "dctcp+tlt", "dctcp+tlt@2x", "dctcp@2x"],
            "one latency hist per scheme × load"
        );
        for s in &schemes {
            assert_eq!(seq.reg.counter(&format!("serve_requests/{s}")), 16);
        }
        let back = ServeReport::parse(&a).expect("self-parse");
        assert_eq!(back.to_json(), a);
    }

    /// The spans acceptance bar: `tlt-spans/v1` and its Perfetto rendering
    /// are byte-identical under different worker counts, conservation is
    /// closed for every scheme, and the export survives its own parser.
    #[test]
    #[cfg(feature = "ledger")]
    fn spans_report_is_byte_identical_and_conserved_across_jobs() {
        let (_, _, seq) = run_grid(&tiny_spec(), 2, 1);
        let (_, _, par) = run_grid(&tiny_spec(), 2, 4);
        let seq = seq.expect("ledger feature on");
        let par = par.expect("ledger feature on");
        let a = seq.to_json();
        assert_eq!(a, par.to_json(), "spans report differs under --jobs");
        assert_eq!(
            seq.to_perfetto(),
            par.to_perfetto(),
            "perfetto export differs under --jobs"
        );
        assert!(a.contains("tlt-spans/v1"));
        for scheme in seq.schemes() {
            assert_eq!(
                seq.conservation_residue(&scheme),
                0,
                "scheme {scheme} not conserved"
            );
            assert_eq!(
                seq.reg.counter(&format!("span_unattributed_ns/{scheme}")),
                0
            );
        }
        assert!(!seq.spans.is_empty(), "worst-request reservoir populated");
        let back = telemetry::SpanReport::parse(&a).expect("self-parse");
        assert_eq!(back.to_json(), a);
    }

    #[test]
    fn labels_and_configs_cover_the_paper_schemes() {
        assert_eq!(scheme_label(TransportKind::DcqcnIrn, true), "dcqcn+irn+tlt");
        assert_eq!(scheme_label(TransportKind::Tcp, false), "tcp");
        for kind in KINDS {
            for tlt in [false, true] {
                let cfg = grid_cfg(kind, tlt, 4);
                assert!(matches!(cfg.topology, TopologySpec::FatTree { k: 4, .. }));
                assert_eq!(cfg.tlt.is_some(), tlt);
                if tlt {
                    assert!(cfg.switch.color_threshold.is_some());
                }
            }
        }
    }
}
