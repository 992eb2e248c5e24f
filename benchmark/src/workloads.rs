//! The seven workloads: what each one runs, and why it exists.
//!
//! A workload is a fixed list of simulation *cells* run back to back on one
//! thread. A cell is a `SimConfig` plus a flow generator; the simulator only
//! ever sees the generated `SimConfig` + `Vec<FlowSpec>`. Everything here is
//! a pure function of `(scale, seed)`.
//!
//! The seed moves arrival times, endpoints, incast receivers, ECMP hashes
//! and which flow gets which size. It does *not* move the amount of work:
//! flow sizes are a stratified sample of the workload's CDF (one size per
//! 1/n quantile stratum, shuffled by the seed) and the serve workloads cut
//! the request stream at a fixed number of query/response pairs, so the
//! offered bytes per rep are the same for every seed and `wall_s` of two
//! seeds is comparable. With plain i.i.d. draws from the heavy-tailed
//! `web_search` CDF the offered bytes of 400 flows vary by ±12 % between
//! seeds, which would drown the 10 % regression bound.

use dcsim::{FaultSchedule, FlowSpec, SimConfig};
use eventsim::{SimRng, SimTime};
use netsim::topology::TopologySpec;
use netsim::LinkSpec;
use serve::{ServeParams, ServeWorkload};
use transport::TransportKind;
use workload::{incast_burst, standard_mix, FlowSizeCdf, MixParams};

/// Input sizes. `Full` is what the recorded numbers use; `Smoke` runs every
/// workload in well under two seconds for the self-tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn mix_bg_flows(self) -> usize {
        match self {
            Scale::Full => 100,
            Scale::Smoke => 12,
        }
    }
    fn incast_flows(self) -> usize {
        match self {
            Scale::Full => 3_000,
            Scale::Smoke => 200,
        }
    }
    fn serve_requests(self) -> usize {
        match self {
            Scale::Full => 512,
            Scale::Smoke => 48,
        }
    }
}

/// What a cell's generator hands to the engine.
pub struct Input {
    pub flows: Vec<FlowSpec>,
    /// The request index of a serve cell (for `serve::account`).
    pub serve: Option<(ServeWorkload, SimTime)>,
}

/// One simulation of a workload.
pub struct Cell {
    /// Scheme label, e.g. `dctcp+pfc+tlt`.
    pub label: String,
    pub cfg: SimConfig,
    /// Builds the flow list; timed as part of `setup_s`.
    pub gen: Box<dyn Fn() -> Input>,
    /// The layer `gen` calls into: `workload.gen` or `serve.generate`.
    pub gen_layer: &'static str,
    /// Attach every runtime observer (metrics registry, tracer into a
    /// counting sink, 10 µs port sampling) and fold the registry afterwards.
    pub observed: bool,
}

/// A paired claim of the paper: the `tlt` cell takes fewer RTOs than the
/// `base` cell (see `run::check` for the exact inequality).
pub struct RtoPair {
    pub base: usize,
    pub tlt: usize,
}

pub struct Workload {
    pub cells: Vec<Cell>,
    pub rto_pairs: Vec<RtoPair>,
    /// Cells that must see zero switch drops (PFC without TLT is lossless).
    pub lossless: Vec<usize>,
}

/// Workload names in execution order, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "mix_tcp",
        "Window transports do the work: DCTCP x {lossy, PFC} x {base, +TLT} on the leaf-spine web_search mix (SACK, RTO timers, TLT window marking, ECN, colour drops, PFC pauses)",
    ),
    (
        "mix_roce",
        "Rate transports do the work: {DCQCN+SACK, HPCC} x {base, +TLT} on the same fabric; pacing/alpha/increase timers churn the event queue and transport::tcp runs nothing",
    ),
    (
        "incast_burst",
        "The paper's core regime: synchronized single-switch incast, {TCP, DCTCP} x {base, +TLT}; switch reject path, RTOs and loss recovery dominate, topology and queue depth do almost nothing",
    ),
    (
        "serve_k8",
        "Fat-tree k=8 request serving (6-hop routes, FlowSpec::after chains, serve::account): per-hop link/switch cost dominates and state fits in cache",
    ),
    (
        "serve_k24",
        "Same code as serve_k8 on 3456 hosts and 720 switches: the cache-footprint, peak_rss_mb and setup_s workload; a memory-layout change shows here and not on mix_tcp",
    ),
    (
        "mix_tcp_observed",
        "mix_tcp's two lossy cells with every runtime observer attached (metrics registry, tracer into a counting sink, 10 us port samples): telemetry cost shows here and must not move mix_tcp",
    ),
    (
        "mix_faults",
        "mix_tcp fabric under one fault schedule (rerouted link-down, burst loss, flap, pause storm): the only workload where faults, frame destruction, ECMP re-pinning and go-back-N loss recovery run",
    ),
];

pub fn build(name: &str, scale: Scale, seed: u64) -> Option<Workload> {
    Some(match name {
        "mix_tcp" => mix_tcp(scale, seed, false),
        "mix_roce" => mix_roce(scale, seed),
        "incast_burst" => incast(scale, seed),
        "serve_k8" => serve_grid(scale, seed, 8),
        "serve_k24" => serve_grid(scale, seed, 24),
        "mix_tcp_observed" => mix_tcp(scale, seed, true),
        "mix_faults" => mix_faults(scale, seed),
        _ => return None,
    })
}

fn workload(cells: Vec<Cell>) -> Workload {
    Workload {
        cells,
        rto_pairs: Vec::new(),
        lossless: Vec::new(),
    }
}

/// Overwrites the sizes of the flows `pick` selects with a stratified sample
/// of `cdf`: stratum `i` of `n` contributes its mid-quantile, and the seed
/// decides which flow gets which size. The size *distribution* is the CDF's
/// (more faithfully than n i.i.d. draws); the total is seed-independent.
fn stratify_sizes(
    flows: &mut [FlowSpec],
    pick: impl Fn(&FlowSpec) -> bool,
    cdf: &FlowSizeCdf,
    seed: u64,
) {
    let idx: Vec<usize> = (0..flows.len()).filter(|&i| pick(&flows[i])).collect();
    let n = idx.len();
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| cdf.quantile((i as f64 + 0.5) / n as f64).max(100))
        .collect();
    let mut rng = SimRng::seed_from(seed).fork(0x57A7);
    for i in (1..n).rev() {
        sizes.swap(i, rng.gen_range_usize(0..i + 1));
    }
    for (i, s) in idx.into_iter().zip(sizes) {
        flows[i].bytes = s;
    }
}

fn mix_params(scale: Scale, seed: u64) -> MixParams {
    let mut p = MixParams::reduced(scale.mix_bg_flows());
    p.seed = seed;
    p
}

/// The leaf–spine fabric matching `p` at the family's link latency (10 µs
/// TCP, 1 µs RoCE), as `bench::runner::mix_topology` builds it.
fn mix_topology(p: &MixParams, roce: bool) -> TopologySpec {
    let delay = SimTime::from_us(if roce { 1 } else { 10 });
    let link = LinkSpec::new(p.link_bw_bps, delay);
    TopologySpec::LeafSpine {
        cores: p.cores,
        tors: p.tors,
        hosts_per_tor: p.hosts / p.tors,
        host_link: link,
        fabric_link: link,
    }
}

fn family_cfg(kind: TransportKind, topology: TopologySpec, tlt: bool, pfc: bool) -> SimConfig {
    let mut cfg = if kind.is_roce() {
        SimConfig::roce_family(kind)
    } else {
        SimConfig::tcp_family(kind)
    }
    .with_topology(topology);
    if tlt {
        cfg = cfg.with_tlt();
    }
    if pfc {
        cfg = cfg.with_pfc();
    }
    cfg
}

fn scheme_label(kind: TransportKind, tlt: bool, pfc: bool) -> String {
    format!(
        "{}{}{}",
        kind.name().to_lowercase(),
        if pfc { "+pfc" } else { "" },
        if tlt { "+tlt" } else { "" }
    )
}

fn mix_gen(p: MixParams) -> Box<dyn Fn() -> Input> {
    Box::new(move || {
        let cdf = FlowSizeCdf::web_search();
        let mut flows = standard_mix(&cdf, p);
        stratify_sizes(&mut flows, |f| !f.fg, &cdf, p.seed);
        Input { flows, serve: None }
    })
}

fn mix_cell(p: MixParams, kind: TransportKind, tlt: bool, pfc: bool, seed: u64) -> Cell {
    Cell {
        label: scheme_label(kind, tlt, pfc),
        cfg: family_cfg(kind, mix_topology(&p, kind.is_roce()), tlt, pfc).with_seed(seed),
        gen: mix_gen(p),
        gen_layer: "workload.gen",
        observed: false,
    }
}

fn mix_tcp(scale: Scale, seed: u64, observed: bool) -> Workload {
    let p = mix_params(scale, seed);
    let mut cells = Vec::new();
    for pfc in [false, true] {
        if observed && pfc {
            continue;
        }
        for tlt in [false, true] {
            let mut c = mix_cell(p, TransportKind::Dctcp, tlt, pfc, seed);
            if observed {
                c.observed = true;
                c.cfg.trace_sample_every = Some(SimTime::from_us(10));
            }
            cells.push(c);
        }
    }
    let mut w = workload(cells);
    w.rto_pairs.push(RtoPair { base: 0, tlt: 1 });
    if !observed {
        w.rto_pairs.push(RtoPair { base: 2, tlt: 3 });
        w.lossless.push(2);
    }
    w
}

fn mix_roce(scale: Scale, seed: u64) -> Workload {
    let p = mix_params(scale, seed);
    let mut cells = Vec::new();
    for kind in [TransportKind::DcqcnSack, TransportKind::Hpcc] {
        for tlt in [false, true] {
            cells.push(mix_cell(p, kind, tlt, false, seed));
        }
    }
    workload(cells)
}

fn incast(scale: Scale, seed: u64) -> Workload {
    let n = scale.incast_flows();
    let mut cells = Vec::new();
    let mut pairs = Vec::new();
    for s in [seed, seed.wrapping_add(1)] {
        for kind in [TransportKind::Tcp, TransportKind::Dctcp] {
            for tlt in [false, true] {
                if tlt {
                    pairs.push(RtoPair {
                        base: cells.len() - 1,
                        tlt: cells.len(),
                    });
                }
                cells.push(Cell {
                    label: format!("{}@s{}", scheme_label(kind, tlt, false), s),
                    cfg: family_cfg(kind, dcsim::small_single_switch(9), tlt, false).with_seed(s),
                    gen: Box::new(move || Input {
                        flows: incast_burst(n, 8, 32_000, s),
                        serve: None,
                    }),
                    gen_layer: "workload.gen",
                    observed: false,
                });
            }
        }
    }
    let mut w = workload(cells);
    w.rto_pairs = pairs;
    w
}

/// The serving request stream of `serve_grid`, cut at a fixed number of
/// query/response pairs (not requests) and with stratified response sizes,
/// so every seed offers the same flows and bytes.
fn serve_gen(params: ServeParams, seed: u64) -> Box<dyn Fn() -> Input> {
    // Expected pairs of `requests` requests: a quarter fan out.
    let per_req = 1.0 - params.fanout_fraction + params.fanout_fraction * params.fanout as f64;
    let target_pairs = (params.requests as f64 * per_req) as usize;
    Box::new(move || {
        let mut over = params.clone();
        over.requests = params.requests * 3 / 2 + 8;
        let mut wl = serve::generate(&over, seed);
        let mut pairs = 0;
        let keep = wl
            .requests
            .iter()
            .position(|r| {
                pairs += r.servers.len();
                pairs >= target_pairs
            })
            .map_or(wl.requests.len(), |i| i + 1);
        wl.requests.truncate(keep);
        // Flows are generated request by request, two per pair.
        wl.flows.truncate(2 * pairs.min(wl.flows.len() / 2));
        stratify_sizes(
            &mut wl.flows,
            |f| f.after.is_some(),
            &params.response_cdf,
            seed,
        );
        Input {
            flows: wl.flows.clone(),
            serve: Some((wl, params.slo)),
        }
    })
}

fn serve_grid(scale: Scale, seed: u64, k: usize) -> Workload {
    let hosts = k * k * k / 4;
    // Per-scale mean gaps as `serve_grid --scale k8|k24` uses them.
    let gap_us = if k == 8 { 20 } else { 10 };
    let params = ServeParams {
        hosts,
        requests: scale.serve_requests(),
        mean_gap: SimTime::from_us(gap_us),
        fanout: 32,
        fanout_fraction: 0.25,
        query_bytes: 1_600,
        response_cdf: FlowSizeCdf::cache_follower(),
        think: SimTime::from_us(5),
        slo: SimTime::from_us(2_000),
    };
    let schemes: [(TransportKind, bool); 2] = if k == 8 {
        [
            (TransportKind::Dctcp, true),
            (TransportKind::DcqcnIrn, true),
        ]
    } else {
        [(TransportKind::Dctcp, false), (TransportKind::Hpcc, false)]
    };
    let cells = schemes
        .into_iter()
        .map(|(kind, tlt)| {
            let latency = SimTime::from_us(if kind.is_roce() { 1 } else { 10 });
            Cell {
                label: scheme_label(kind, tlt, false),
                cfg: family_cfg(kind, TopologySpec::paper_fat_tree(k, latency), tlt, false)
                    .with_seed(seed),
                gen: serve_gen(params.clone(), seed),
                gen_layer: "serve.generate",
                observed: false,
            }
        })
        .collect();
    workload(cells)
}

/// One schedule exercising every fault arm on the 4-core / 6-ToR fabric
/// (cores are nodes 0..4, ToRs nodes 4..10; ToR ports 0..8 face hosts,
/// 8..12 face cores).
fn fault_schedule() -> FaultSchedule {
    FaultSchedule::new()
        // ToR 0 loses its uplink to core 0 for good; flows re-pin 200 µs later.
        .link_down_rerouted(SimTime::from_us(300), 4, 8, SimTime::from_us(200))
        // Gilbert–Elliott corruption on ToR 1's downlink to its first host.
        .burst_loss(SimTime::from_us(100), 5, 0, 0.002, 8.0, 0.5)
        // ToR 2's uplink to core 1 flaps.
        .link_flap(SimTime::from_us(600), 6, 9, SimTime::from_us(150))
        // Spurious XOFF against ToR 3's ingress from its first host.
        .pause_storm(SimTime::from_us(400), 7, 0, SimTime::from_us(300))
}

fn mix_faults(scale: Scale, seed: u64) -> Workload {
    let p = mix_params(scale, seed);
    let cells = [
        (TransportKind::Dctcp, true),
        (TransportKind::DcqcnGbn, false),
        (TransportKind::DcqcnIrn, false),
    ]
    .into_iter()
    .map(|(kind, tlt)| {
        let mut c = mix_cell(p, kind, tlt, false, seed);
        c.cfg = c.cfg.with_faults(fault_schedule());
        c
    })
    .collect();
    workload(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offered(w: &Workload) -> Vec<(usize, u64)> {
        w.cells
            .iter()
            .map(|c| {
                let flows = (c.gen)().flows;
                (flows.len(), flows.iter().map(|f| f.bytes).sum())
            })
            .collect()
    }

    #[test]
    fn every_seed_offers_the_same_work() {
        for (name, _) in WORKLOADS {
            let a = offered(&build(name, Scale::Smoke, 1).unwrap());
            let b = offered(&build(name, Scale::Smoke, 99).unwrap());
            if name.starts_with("serve") {
                // Cut at the request that reaches the pair target: at most
                // one fan-out (32 pairs, 64 flows) apart.
                for ((na, _), (nb, _)) in a.iter().zip(&b) {
                    assert!(na.abs_diff(*nb) < 64, "{name}: {na} vs {nb} flows");
                }
            } else {
                assert_eq!(a, b, "{name}");
            }
        }
    }

    #[test]
    fn the_seed_moves_the_inputs() {
        let flows = |seed| (build("mix_tcp", Scale::Smoke, seed).unwrap().cells[0].gen)().flows;
        let key = |f: &FlowSpec| (f.src, f.dst, f.bytes, f.start.as_ns());
        let (a, again, b) = (flows(1), flows(1), flows(2));
        assert_eq!(
            a.iter().map(key).collect::<Vec<_>>(),
            again.iter().map(key).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(key).collect::<Vec<_>>(),
            b.iter().map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stratified_sizes_cover_the_cdf() {
        let cdf = FlowSizeCdf::web_search();
        let mut flows = vec![FlowSpec::new(0, 1, 1, SimTime::ZERO, false); 1000];
        stratify_sizes(&mut flows, |_| true, &cdf, 5);
        let mean = flows.iter().map(|f| f.bytes).sum::<u64>() as f64 / 1000.0;
        assert!((mean / cdf.mean_bytes() - 1.0).abs() < 0.02, "mean {mean}");
        let mut sizes: Vec<u64> = flows.iter().map(|f| f.bytes).collect();
        sizes.sort_unstable();
        assert_eq!(sizes[0], cdf.quantile(0.0005).max(100));
        assert_eq!(sizes[999], cdf.quantile(0.9995));
    }

    #[test]
    fn unknown_workload_is_none() {
        assert!(build("mix", Scale::Smoke, 1).is_none());
    }
}
