//! Open-loop request/response serving on top of the flow simulator.
//!
//! The paper's hardware evaluation (§7.3) measures TLT at the *application*
//! level — Redis request latency under incast and failure — because a
//! single timed-out flow stalls the whole request it belongs to. This crate
//! is that layer for the simulator: an open-loop client population issues
//! requests by a seeded Poisson process, each request becomes one or more
//! query→response flow chains (fan-out/fan-in for partition–aggregate
//! requests), and per-request latency is judged against an SLO with the
//! violation attributed back to retransmission timeouts via the engine's
//! RTO forensics.
//!
//! The pieces:
//!
//! - [`ServeParams`]: the workload shape (request count, mean inter-arrival
//!   gap, fan-out width and fraction, query size, response-size CDF, server
//!   think time, SLO);
//! - [`generate`]: expands the parameters into a deterministic
//!   [`dcsim::FlowSpec`] list — response flows ride the engine's
//!   flow-completion triggers ([`dcsim::FlowSpec::after`]) so a response
//!   starts only when its query is fully delivered — plus the [`Request`]
//!   index mapping each request to its flows;
//! - [`account`]: joins a finished [`dcsim::SimResult`] against that index
//!   and folds every request into a [`telemetry::Artifact`]: a bounded
//!   log-linear latency histogram per scheme (quantiles via
//!   [`telemetry::Hist::quantile_permille`]) and violation counters split
//!   into timeout-induced (some flow of the request appears in the RTO
//!   forensics) vs other (pure queueing). No per-request sample vectors
//!   exist at any point, so accounting memory is independent of request
//!   count — the bounded/mergeable bar set by the tail-latency-estimation
//!   literature for thousands-of-hosts fabrics.
//!
//! Everything is a pure function of `(params, seed)`: the bench harness
//! runs (scheme, seed) jobs in parallel and folds reports in plan order,
//! keeping the exports byte-identical under any `--jobs` value.

use eventsim::{SimRng, SimTime};

use dcsim::{FlowSpec, SimResult};
use telemetry::Artifact;
use workload::FlowSizeCdf;

/// Shape of the open-loop serving workload.
#[derive(Clone, Debug)]
pub struct ServeParams {
    /// Hosts in the topology; clients and servers are drawn from all of
    /// them (a host can serve one request and issue another).
    pub hosts: usize,
    /// Requests to issue (the open-loop arrival process stops after this
    /// many, regardless of completions).
    pub requests: usize,
    /// Mean inter-arrival gap of the Poisson arrival process.
    pub mean_gap: SimTime,
    /// Servers contacted by a fan-out (partition–aggregate) request.
    pub fanout: usize,
    /// Fraction of requests that fan out to `fanout` servers; the rest
    /// contact a single server.
    pub fanout_fraction: f64,
    /// Query (request) flow size in bytes.
    pub query_bytes: u64,
    /// Response-size distribution (one draw per contacted server).
    pub response_cdf: FlowSizeCdf,
    /// Server think time between query delivery and response start.
    pub think: SimTime,
    /// Per-request latency SLO.
    pub slo: SimTime,
}

impl ServeParams {
    /// A small smoke-scale workload for `hosts` hosts: 64 requests, 50 µs
    /// mean gap, 4-wide fan-out for a quarter of them, 1.6 kB queries,
    /// cache-follower responses, 2 ms SLO.
    pub fn small(hosts: usize) -> ServeParams {
        ServeParams {
            hosts,
            requests: 64,
            mean_gap: SimTime::from_us(50),
            fanout: 4,
            fanout_fraction: 0.25,
            query_bytes: 1_600,
            response_cdf: FlowSizeCdf::cache_follower(),
            think: SimTime::from_us(5),
            slo: SimTime::from_ms(2),
        }
    }
}

/// One request's identity in the generated flow list.
#[derive(Clone, Debug)]
pub struct Request {
    /// Arrival time (the latency clock starts here).
    pub arrival: SimTime,
    /// Client host index.
    pub client: usize,
    /// Server host indices (length 1, or `fanout` for a fan-out request).
    pub servers: Vec<usize>,
    /// Query flow ids (client → server, one per server).
    pub queries: Vec<u32>,
    /// Response flow ids (server → client, `responses[i]` answers
    /// `queries[i]`); the request completes when the *last* response
    /// finishes (fan-in).
    pub responses: Vec<u32>,
}

impl Request {
    /// All flow ids belonging to this request, queries then responses.
    pub fn flow_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.queries.iter().chain(self.responses.iter()).copied()
    }
}

/// A generated serving workload: the flow specs to hand to
/// [`dcsim::Engine::new`] and the request index for [`account`].
#[derive(Clone, Debug)]
pub struct ServeWorkload {
    /// Flow specs (queries at absolute arrival times, responses chained on
    /// query completion via [`FlowSpec::after`]).
    pub flows: Vec<FlowSpec>,
    /// Request index, in arrival order.
    pub requests: Vec<Request>,
}

/// Expands `params` into flows and requests, deterministically from `seed`.
///
/// Arrivals are Poisson (exponential gaps around `params.mean_gap`); each
/// request draws a client uniformly and its servers uniformly-distinct
/// (excluding the client). Every contacted server gets a query flow at the
/// arrival time and a response flow of CDF-drawn size that starts
/// `params.think` after its query completes.
///
/// # Panics
///
/// Panics when `hosts < 2`, `requests == 0`, `fanout == 0`, or `fanout >=
/// hosts` (a fan-out request needs `fanout` distinct servers besides the
/// client).
pub fn generate(params: &ServeParams, seed: u64) -> ServeWorkload {
    assert!(params.hosts >= 2, "need at least a client and a server");
    assert!(params.requests >= 1, "need at least one request");
    assert!(
        params.fanout >= 1 && params.fanout < params.hosts,
        "fan-out {} needs that many servers besides the client among {} hosts",
        params.fanout,
        params.hosts
    );
    let mut rng = SimRng::seed_from(seed).fork(0x5E27E);
    let mut flows = Vec::new();
    let mut requests = Vec::with_capacity(params.requests);
    let mut t = 0.0f64;
    for _ in 0..params.requests {
        t += rng.gen_exponential(params.mean_gap.as_secs_f64());
        let arrival = SimTime::from_secs_f64(t);
        let client = rng.gen_range_usize(0..params.hosts);
        let width = if params.fanout > 1 && rng.gen_bool(params.fanout_fraction) {
            params.fanout
        } else {
            1
        };
        // Distinct servers by rejection: width << hosts, so the expected
        // number of redraws is tiny, and the draw order is deterministic.
        let mut servers = Vec::with_capacity(width);
        while servers.len() < width {
            let s = rng.gen_range_usize(0..params.hosts);
            if s != client && !servers.contains(&s) {
                servers.push(s);
            }
        }
        let mut queries = Vec::with_capacity(width);
        let mut responses = Vec::with_capacity(width);
        for &server in &servers {
            let q = flows.len() as u32;
            flows.push(FlowSpec::new(
                client,
                server,
                params.query_bytes,
                arrival,
                true,
            ));
            let bytes = params.response_cdf.sample(&mut rng).max(100);
            let r = flows.len() as u32;
            flows.push(FlowSpec::new(server, client, bytes, params.think, true).after(q));
            queries.push(q);
            responses.push(r);
        }
        requests.push(Request {
            arrival,
            client,
            servers,
            queries,
            responses,
        });
    }
    ServeWorkload { flows, requests }
}

/// Joins a finished run against the request index and folds every request
/// into an [`Artifact`] fragment for `scheme` (the serve key layout of
/// [`telemetry::serve`]), using bounded memory.
///
/// Per request:
///
/// - all flows complete → latency = last response end − arrival
///   ([`netstats::fanin_latency`]), observed into
///   `serve_req_latency_ns/<scheme>`;
/// - latency exceeds `slo` → one of `serve_slo_viol_timeout/<scheme>`
///   (some flow of the request took an RTO; the *earliest* matching
///   forensic record's cause increments
///   `serve_viol_cause/<scheme>/<cause>`) or `serve_slo_viol_other/<scheme>`;
/// - any flow unfinished at the horizon → `serve_incomplete/<scheme>`
///   (no latency is recorded — an unfinished request has none).
///
/// The timeout join is cross-checkable: `serve_slo_viol_timeout` equals the
/// sum of the scheme's `serve_viol_cause/*` counters, and is bounded by the
/// run's forensic record count.
pub fn account(scheme: &str, wl: &ServeWorkload, res: &SimResult, slo: SimTime) -> Artifact {
    let mut rep = Artifact::new();
    let reg = &mut rep.reg;
    reg.inc(
        &format!("serve_requests/{scheme}"),
        wl.requests.len() as u64,
    );
    // Materialize the outcome counters even when zero: the export schema
    // stays stable across runs, and `trace_inspect --diff` shows explicit
    // zeros instead of missing keys.
    reg.inc(&format!("serve_incomplete/{scheme}"), 0);
    reg.inc(&format!("serve_slo_viol_timeout/{scheme}"), 0);
    reg.inc(&format!("serve_slo_viol_other/{scheme}"), 0);
    let hist_name = format!("{}{scheme}", telemetry::serve::REQ_LATENCY_PREFIX);
    for req in &wl.requests {
        let group = req.responses.iter().map(|&r| &res.flows[r as usize]);
        let complete = req.flow_ids().all(|f| res.flows[f as usize].end.is_some());
        if !complete {
            reg.inc(&format!("serve_incomplete/{scheme}"), 1);
            continue;
        }
        let latency =
            netstats::fanin_latency(req.arrival, group).expect("complete request has a latency");
        reg.observe(&hist_name, latency.as_ns());
        if latency <= slo {
            continue;
        }
        // Earliest forensic record touching this request wins the
        // attribution: the first RTO is what stalled the chain.
        let cause = res.forensics.iter().find_map(|rec| {
            req.flow_ids()
                .any(|f| f == rec.flow)
                .then_some(rec.cause.as_str())
        });
        match cause {
            Some(cause) => {
                reg.inc(&format!("serve_slo_viol_timeout/{scheme}"), 1);
                reg.inc(&format!("serve_viol_cause/{scheme}/{cause}"), 1);
            }
            None => {
                reg.inc(&format!("serve_slo_viol_other/{scheme}"), 1);
            }
        }
    }
    rep
}

/// Joins a finished ledger-enabled run against the request index and builds
/// the spans fragment for `scheme`: per-scheme phase/FCT
/// histograms from *every* completed flow, dominant-phase attribution for
/// each SLO violation, and a span tree (request → query flows → response
/// flows → stall intervals) offered to the worst-K reservoir.
///
/// `seed` is recorded on each span so trees from different grid cells stay
/// distinguishable after the plan-order fold. Incomplete requests
/// contribute no span (an unfinished request has no latency), but their
/// completed member flows still feed the phase histograms.
///
/// # Panics
///
/// Panics when `res` carries no ledger (the run did not attach one with
/// `Engine::set_ledger`).
pub fn account_spans(
    scheme: &str,
    seed: u64,
    wl: &ServeWorkload,
    res: &SimResult,
    slo: SimTime,
) -> Artifact {
    use telemetry::{FlowSpan, PhaseTimes, RequestSpan, StallSpan};

    let recs = res
        .ledger
        .as_ref()
        .expect("account_spans needs a ledger-enabled SimResult");
    let mut rep = Artifact::new();
    for rec in recs {
        if let Some(fct) = rec.fct_ns() {
            // Conservation makes this zero; it is *recorded*, not silently
            // assumed, so the exported artifact carries the proof.
            let unattributed = fct.saturating_sub(rec.phases.total());
            rep.record_flow(scheme, &rec.phases, fct, unattributed);
        }
    }
    for (ri, req) in wl.requests.iter().enumerate() {
        if !req.flow_ids().all(|f| res.flows[f as usize].end.is_some()) {
            continue;
        }
        let group = req.responses.iter().map(|&r| &res.flows[r as usize]);
        let latency =
            netstats::fanin_latency(req.arrival, group).expect("complete request has a latency");
        let mut phases = PhaseTimes::default();
        let mut flows = Vec::with_capacity(req.queries.len() + req.responses.len());
        for (j, f) in req.flow_ids().enumerate() {
            let rec = &recs[f as usize];
            phases.merge(&rec.phases);
            flows.push(FlowSpan {
                id: u64::from(f),
                role: if j < req.queries.len() {
                    "query".to_string()
                } else {
                    "response".to_string()
                },
                start_ns: rec.start_ns,
                end_ns: rec.end_ns.expect("member flow completed"),
                phases: rec.phases,
                stalls: rec
                    .stalls
                    .iter()
                    .map(|s| StallSpan {
                        phase: s.phase,
                        start_ns: s.start_ns,
                        dur_ns: s.dur_ns,
                    })
                    .collect(),
            });
        }
        let dominant = phases.dominant();
        if latency > slo {
            rep.record_violation(scheme, dominant);
        }
        rep.push_request(RequestSpan {
            scheme: scheme.to_string(),
            seed,
            req: ri as u64,
            start_ns: req.arrival.as_ns(),
            latency_ns: latency.as_ns(),
            dominant,
            flows,
        });
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::{Engine, SimConfig};
    use eventsim::SimTime;
    use netsim::topology::TopologySpec;
    use transport::TransportKind;

    #[test]
    fn generate_is_deterministic_and_well_formed() {
        let params = ServeParams::small(16);
        let a = generate(&params, 7);
        let b = generate(&params, 7);
        assert_eq!(a.requests.len(), params.requests);
        assert_eq!(a.flows.len(), b.flows.len());
        for (x, y) in a.flows.iter().zip(&b.flows) {
            assert_eq!(
                (x.src, x.dst, x.bytes, x.start, x.after),
                (y.src, y.dst, y.bytes, y.start, y.after)
            );
        }
        // A different seed moves the arrivals.
        let c = generate(&params, 8);
        assert!(a
            .requests
            .iter()
            .zip(&c.requests)
            .any(|(x, y)| x.arrival != y.arrival));
    }

    #[test]
    fn fanout_requests_chain_responses_on_their_queries() {
        let mut params = ServeParams::small(16);
        params.fanout_fraction = 1.0; // every request fans out
        let wl = generate(&params, 3);
        let mut saw_fanout = false;
        for req in &wl.requests {
            assert_eq!(req.servers.len(), params.fanout);
            assert_eq!(req.queries.len(), req.responses.len());
            saw_fanout = true;
            // Servers are distinct and never the client.
            let mut s = req.servers.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), req.servers.len());
            assert!(!req.servers.contains(&req.client));
            for (&q, &r) in req.queries.iter().zip(&req.responses) {
                let qf = &wl.flows[q as usize];
                let rf = &wl.flows[r as usize];
                assert_eq!(qf.after, None, "queries start at absolute times");
                assert_eq!(rf.after, Some(q), "responses chain on their query");
                assert_eq!(qf.start, req.arrival);
                assert_eq!(rf.start, params.think, "relative think-time delay");
                assert_eq!((qf.src, qf.dst), (rf.dst, rf.src));
            }
        }
        assert!(saw_fanout);
    }

    #[test]
    fn degenerate_params_are_rejected() {
        let mut p = ServeParams::small(4);
        p.fanout = 4; // as many servers as hosts: client can't be excluded
        let r = std::panic::catch_unwind(|| generate(&p, 1));
        assert!(r.is_err());
        let mut p = ServeParams::small(16);
        p.requests = 0;
        let r = std::panic::catch_unwind(|| generate(&p, 1));
        assert!(r.is_err());
    }

    /// End to end: a small serving run on a k=4 fat-tree completes every
    /// request and the accounting is internally consistent.
    #[test]
    fn serve_on_fat_tree_accounts_every_request() {
        let mut params = ServeParams::small(16);
        params.requests = 24;
        params.response_cdf = FlowSizeCdf::fixed(20_000);
        let wl = generate(&params, 5);
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
            .with_topology(TopologySpec::paper_fat_tree(4, SimTime::from_us(10)))
            .with_seed(5);
        let res = Engine::new(cfg, wl.flows.clone()).run();
        let rep = account("dctcp", &wl, &res, params.slo);
        let reg = &rep.reg;
        assert_eq!(reg.counter("serve_requests/dctcp"), 24);
        let h = reg
            .hist("serve_req_latency_ns/dctcp")
            .expect("latency hist");
        assert_eq!(
            h.count + reg.counter("serve_incomplete/dctcp"),
            24,
            "every request is either measured or incomplete"
        );
        assert!(h.count > 0, "some requests completed");
        // Violations never exceed measured requests, and the timeout split
        // matches the per-cause breakdown exactly.
        let viol_t = reg.counter("serve_slo_viol_timeout/dctcp");
        let viol_o = reg.counter("serve_slo_viol_other/dctcp");
        assert!(viol_t + viol_o <= h.count);
        let causes: u64 = reg
            .counters()
            .filter(|(k, _)| k.starts_with("serve_viol_cause/dctcp/"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(causes, viol_t);
        assert!(viol_t <= res.forensics.len() as u64);
    }

    /// The same workload accounted twice produces byte-identical reports —
    /// the property the plan-order fold relies on.
    #[test]
    fn account_is_deterministic() {
        let params = ServeParams::small(8);
        let wl = generate(&params, 2);
        let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
            .with_topology(dcsim::small_single_switch(8))
            .with_seed(2);
        let res = Engine::new(cfg, wl.flows.clone()).run();
        let a = account("s", &wl, &res, params.slo).to_json();
        let res2 = Engine::new(
            SimConfig::tcp_family(TransportKind::Dctcp)
                .with_topology(dcsim::small_single_switch(8))
                .with_seed(2),
            wl.flows.clone(),
        )
        .run();
        let b = account("s", &wl, &res2, params.slo).to_json();
        assert_eq!(a, b);
        assert!(a.contains("tlt-metrics/v1"));
    }

    /// The span join: every completed flow lands in the phase histograms
    /// with zero residue, violation attribution matches the SLO verdicts,
    /// and the worst-K reservoir holds genuinely-worst complete requests.
    #[test]
    fn account_spans_joins_ledger_into_span_trees() {
        use telemetry::spans::TOP_K_REQUESTS;
        let mut params = ServeParams::small(9);
        params.requests = 32;
        params.response_cdf = FlowSizeCdf::fixed(40_000);
        params.slo = SimTime::from_us(600);
        let wl = generate(&params, 11);
        let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
            .with_topology(dcsim::small_single_switch(9))
            .with_seed(11);
        cfg.switch.buffer_bytes = 80_000; // shallow: force queueing + drops
        let mut eng = Engine::new(cfg, wl.flows.clone());
        eng.set_ledger();
        let res = eng.run();
        let rep = account_spans("dctcp", 11, &wl, &res, params.slo);

        // Conservation is closed end to end in the folded histograms.
        assert_eq!(rep.conservation_residue("dctcp"), 0, "\n{}", rep.render());
        let n_complete = res
            .ledger
            .as_ref()
            .unwrap()
            .iter()
            .filter(|r| r.end_ns.is_some())
            .count() as u64;
        assert_eq!(rep.reg.counter("span_flows/dctcp"), n_complete);
        assert_eq!(rep.reg.counter("span_unattributed_ns/dctcp"), 0);

        // The reservoir is bounded, sorted worst-first, and every span tree
        // is internally consistent (flows belong to the request; each flow
        // span's decomposition closes).
        assert!(!rep.spans.is_empty() && rep.spans.len() <= TOP_K_REQUESTS);
        assert!(rep
            .spans
            .windows(2)
            .all(|w| w[0].latency_ns >= w[1].latency_ns));
        for span in &rep.spans {
            let req = &wl.requests[span.req as usize];
            let ids: Vec<u64> = req.flow_ids().map(u64::from).collect();
            assert_eq!(span.flows.iter().map(|f| f.id).collect::<Vec<_>>(), ids);
            for fs in &span.flows {
                assert_eq!(fs.phases.total(), fs.end_ns - fs.start_ns);
            }
        }

        // Violation attribution: one dominant-phase counter per violation.
        let viols: u64 = rep
            .reg
            .counters()
            .filter(|(k, _)| k.starts_with("serve_viol_phase/dctcp/"))
            .map(|(_, v)| v)
            .sum();
        let base = account("dctcp", &wl, &res, params.slo);
        let expected = base.reg.counter("serve_slo_viol_timeout/dctcp")
            + base.reg.counter("serve_slo_viol_other/dctcp");
        assert_eq!(viols, expected, "one dominant phase per SLO violation");

        // Determinism: the join is a pure function of its inputs.
        let again = account_spans("dctcp", 11, &wl, &res, params.slo);
        assert_eq!(rep.to_json(), again.to_json());
    }

    /// A timeout-riddled run attributes SLO violations to RTO causes.
    #[test]
    fn timeouts_show_up_as_attributed_violations() {
        let mut params = ServeParams::small(9);
        params.requests = 32;
        params.fanout_fraction = 1.0;
        params.fanout = 6;
        params.mean_gap = SimTime::from_us(2); // slam the fabric
        params.response_cdf = FlowSizeCdf::fixed(60_000);
        params.slo = SimTime::from_us(500);
        let wl = generate(&params, 11);
        let mut cfg = SimConfig::tcp_family(TransportKind::Tcp)
            .with_topology(dcsim::small_single_switch(9))
            .with_seed(11);
        cfg.switch.buffer_bytes = 60_000; // shallow buffer: force drops
        let res = Engine::new(cfg, wl.flows.clone()).run();
        let rep = account("tcp", &wl, &res, params.slo);
        if res.agg.timeouts > 0 {
            assert!(
                rep.reg.counter("serve_slo_viol_timeout/tcp") > 0,
                "timeouts occurred but no request violation was attributed:\n{}",
                rep.render()
            );
        }
        // Whatever happened, the report renders.
        assert!(rep.render().contains("tcp"));
    }
}
