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
//! timeout-induced vs other violations, incompletes), a `tlt-metrics/v1`
//! artifact via `--serve-out` that `trace_inspect --metrics` renders and
//! `trace_inspect --diff` compares, and the usual flow-level FCT table for
//! cross-reference. Accounting memory is bounded: requests fold straight
//! into log-linear histograms, so `--scale k24` (3456 hosts) costs the
//! same per-request memory as `--scale k8` (128 hosts).
//!
//! Bespoke flags on top of the standard harness set:
//!
//! * `--scale k8|k24` — fat-tree degree (default k8);
//! * `--serve-out <file>` — write the merged serve report;
//! * `--spans-out <file>` — write the merged latency-ledger report (the
//!   registry plus the worst-request `spans` section); either this flag or
//!   the next attaches the ledger to every run;
//! * `--perfetto-out <file>` — write that reservoir as Perfetto trace-event
//!   JSON;
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
//! accounting runs in the plan's per-job closure, and fragments fold in plan
//! order — the table and the `--serve-out` bytes are identical under any
//! `--jobs` value.

use std::collections::BTreeMap;

use bench::plan::RunPlan;
use bench::runner::{self, Args, Observers, Outputs, Scale, Table, FG_P99, FG_P999, TO_1K};
use dcsim::SimConfig;
use eventsim::SimTime;
use netsim::topology::TopologySpec;
use serve::ServeParams;
use telemetry::schema::Schema;
use telemetry::Artifact;
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

/// A grid's flow-level results, serve report and spans report.
type Grid = (Vec<runner::SchemeResult>, Artifact, Option<Artifact>);

/// Runs the scheme × load × seed grid on `plan` (empty, its workers, seeds
/// and observers set), folding what its observers record into `outs` and
/// the per-request SLO accounting in plan order. The third element is the
/// merged spans report, `Some` when `spans` attaches the latency ledger to
/// every run.
fn run_grid(spec: &GridSpec, plan: RunPlan<'_>, outs: &mut Outputs, spans: bool) -> Grid {
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
    // The per-job closure regenerates the (cheap) request index from a
    // cell's params to join request ids against the finished run.
    let params_by_scheme: BTreeMap<String, ServeParams> = cells
        .iter()
        .map(|(name, _, p)| (name.clone(), p.clone()))
        .collect();

    let ledger = Observers {
        ledger: spans,
        ..Observers::NONE
    };
    let mut plan = plan.capture(ledger);
    for (name, cfg, params) in cells {
        plan.scheme(name, cfg, move |s| serve::generate(&params, s).flows);
    }
    let out = plan.run_detailed(outs, |name, seed, res| {
        let params = &params_by_scheme[name];
        let wl = serve::generate(params, seed);
        let rep = serve::account(name, &wl, res, params.slo);
        let spans = spans.then(|| serve::account_spans(name, seed, &wl, res, params.slo));
        (rep.reg, spans)
    });
    let mut rep = Artifact::new();
    let mut spans: Option<Artifact> = None;
    for (reg, sp) in &out.values {
        rep.reg.merge(reg);
        if let Some(sp) = sp {
            spans.get_or_insert_with(Artifact::new).merge(sp);
        }
    }
    for doc in std::iter::once(&mut rep).chain(spans.as_mut()) {
        doc.reg.set_meta("scale", spec.scale);
        doc.reg
            .set_meta("slo_ns", &spec.base.slo.as_ns().to_string());
        doc.reg.set_meta("workload", spec.base.response_cdf.name());
    }
    (out.results, rep, spans)
}

/// Holds the serve export (and the spans export, when there is one) to
/// every `tlt-metrics/v1` invariant: the forensic join (per scheme, the
/// cause breakdown sums to the timeout violations, bounded by the recorded
/// RTOs), complete SLO accounting and the ledger's conservation. Panics,
/// release builds included: a silent inconsistency here would falsify the
/// headline table.
fn validate(rep: &Artifact, spans: Option<&Artifact>) {
    let schema = Schema::builtin();
    for a in std::iter::once(rep).chain(spans) {
        if let Err(e) = a.validate(&schema) {
            panic!("serve_grid export breaks an invariant: {e}");
        }
    }
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
    let args = Args::parse_from(rest).unwrap_or_else(|msg| usage(&msg));

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

    let own = [&serve_out, &spans_out, &perfetto_out];
    let mut outs = Outputs::new(&args, &own).unwrap_or_else(|msg| usage(&msg));

    let ledger = spans_out.is_some() || perfetto_out.is_some();
    let (results, mut rep, spans) = run_grid(&spec, RunPlan::new(&args), &mut outs, ledger);
    args.stamp(&mut rep.reg);
    // The fabric degree is this report's identity; re-pin it over the
    // harness quick/default/full label the provenance stamp wrote.
    rep.reg.set_meta("scale", spec.scale);
    validate(&rep, spans.as_ref());

    print!("{}", rep.render());
    println!("  forensic cross-check: ok (causes sum to timeout violations, bounded by RTOs)");

    if let Some(sp) = &spans {
        print!("{}", sp.render());
        println!("  conservation cross-check: ok (sum phases == sum FCT, zero unattributed)");
    }

    let cols = [FG_P999, FG_P99, TO_1K];
    let mut t = Table::new(&["scheme"], &cols);
    t.section("flow-level cross-reference (request flows are fg)", &cols);
    for r in &results {
        t.row(&[&r.name], r);
    }

    outs.file(&serve_out, || rep.to_json());
    if let Some(sp) = &spans {
        outs.file(&spans_out, || sp.to_json());
        outs.file(&perfetto_out, || sp.to_perfetto());
    }
    t.finish(outs);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`run_grid`] over `seeds` seeds on `jobs` workers, writing nothing.
    fn grid(spec: &GridSpec, seeds: u64, jobs: usize, spans: bool) -> Grid {
        run_grid(
            spec,
            RunPlan::sized(jobs, seeds),
            &mut Outputs::default(),
            spans,
        )
    }

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

    /// The acceptance bar: the merged serve report is
    /// byte-identical under different worker counts, covers every scheme ±
    /// TLT, and survives its own parser.
    #[test]
    fn grid_report_is_byte_identical_across_jobs() {
        let (_, seq, _) = grid(&tiny_spec(), 1, 1, false);
        let (_, par, _) = grid(&tiny_spec(), 1, 4, false);
        let a = seq.to_json();
        let b = par.to_json();
        assert_eq!(a, b, "serve report differs under --jobs");
        let schemes = seq.serve_schemes();
        assert_eq!(
            schemes,
            vec!["dctcp", "dctcp+tlt", "dctcp+tlt@2x", "dctcp@2x"],
            "one latency hist per scheme × load"
        );
        for s in &schemes {
            assert_eq!(seq.reg.counter(&format!("serve_requests/{s}")), 16);
        }
        let back = Artifact::parse(&a).expect("self-parse");
        assert_eq!(back.to_json(), a);
    }

    /// Every scheme of the paper ± TLT names exactly one row of each export
    /// (the scheme count the exports cannot check themselves), and the
    /// exports, stamped as `main` stamps them, hold every invariant.
    #[test]
    fn exports_name_every_scheme_once_and_validate() {
        let spec = GridSpec {
            loads: vec![Load {
                suffix: "",
                rate: 1.0,
            }],
            kinds: KINDS.to_vec(),
            ..tiny_spec()
        };
        let (_, mut rep, spans) = grid(&spec, 1, 2, true);
        let mut labels: Vec<String> = KINDS
            .iter()
            .flat_map(|&k| [scheme_label(k, false), scheme_label(k, true)])
            .collect();
        labels.sort();
        assert_eq!(labels.len(), 10);
        assert_eq!(rep.serve_schemes(), labels);
        assert_eq!(spans.as_ref().map(Artifact::span_schemes), Some(labels));
        let args = Args::parse_from(["--quick"]).expect("harness flags");
        args.stamp(&mut rep.reg);
        validate(&rep, spans.as_ref());
    }

    /// The spans acceptance bar: the spans report and its Perfetto rendering
    /// are byte-identical under different worker counts, the export holds
    /// every invariant (conservation closed for every scheme) and survives
    /// its own parser, and the Perfetto document has the trace-event shape.
    #[test]
    fn spans_report_is_byte_identical_and_conserved_across_jobs() {
        use telemetry::json::{self, Value};

        let (_, _, seq) = grid(&tiny_spec(), 2, 1, true);
        let (_, _, par) = grid(&tiny_spec(), 2, 4, true);
        let seq = seq.expect("the ledger is attached");
        let par = par.expect("the ledger is attached");
        let a = seq.to_json();
        assert_eq!(a, par.to_json(), "spans report differs under --jobs");
        assert_eq!(
            seq.to_perfetto(),
            par.to_perfetto(),
            "perfetto export differs under --jobs"
        );
        validate(&seq, None);
        assert!(!seq.spans.is_empty(), "worst-request reservoir populated");
        let back = Artifact::parse(&a).expect("self-parse");
        assert_eq!(back.to_json(), a);

        let pf = json::parse(&seq.to_perfetto()).expect("perfetto JSON parses");
        let text = |v: Option<&Value>| v.and_then(Value::as_str).map(str::to_string);
        assert_eq!(text(pf.get("displayTimeUnit")).as_deref(), Some("ns"));
        let other = pf.get("otherData").and_then(|o| o.get("schema"));
        assert_eq!(text(other).as_deref(), Some("tlt-metrics/v1"));
        let events = pf.get("traceEvents").map_or(&[][..], Value::items);
        assert!(!events.is_empty(), "no trace events");
        for e in events {
            for k in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
                assert!(e.get(k).is_some(), "{k} missing: {e:?}");
            }
            assert_eq!(text(e.get("ph")).as_deref(), Some("X"), "{e:?}");
            let cat = text(e.get("cat"));
            assert!(
                matches!(cat.as_deref(), Some("request" | "flow" | "stall")),
                "{e:?}"
            );
        }
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
