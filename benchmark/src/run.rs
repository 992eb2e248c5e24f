//! One workload, measured from outside the simulator: the rep loop, the
//! benchmark-side spans, the exact counters and the output checks.
//!
//! A rep runs the workload's cells back to back on this thread. Per cell the
//! harness always takes three clock readings — start, after set-up (flow
//! generation + `Engine::new`), after everything a user pays for a result
//! (`Engine::run`, FCT summaries, request accounting, registry fold) — so
//! `setup_s` and `wall_s` cost three `Instant::now()` calls per cell. The
//! traced run additionally records a span around every call into a layer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dcsim::{Engine, SimResult};
use netstats::summarize_flows;
use telemetry::{CountingSink, Hist, Registry, Tracer};

use crate::stats::{summarize, Summary};
use crate::workloads::{Cell, Workload};

/// A benchmark-side span: a call into one layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Cell label; empty for the rep span itself.
    pub cell: String,
    pub rep: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans in memory when on; costs nothing when off.
pub struct Recorder {
    origin: Instant,
    on: bool,
    rep: usize,
    parent: Option<usize>,
    cell: String,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            on,
            rep: 0,
            parent: None,
            cell: String::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses the ones recorded until [`Recorder::close`].
    fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            cell: self.cell.clone(),
            rep: self.rep,
            start_ns: t,
            end_ns: t,
            parent: self.parent,
        });
        let outer = self.parent;
        self.parent = Some(self.spans.len() - 1);
        outer
    }

    fn close(&mut self, outer: Option<usize>) {
        if let Some(i) = self.parent {
            self.spans[i].end_ns = self.now_ns();
            self.parent = outer;
        }
    }

    /// Times `f` as a leaf span.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        self.spans.push(Span {
            name,
            cell: self.cell.clone(),
            rep: self.rep,
            start_ns,
            end_ns: self.now_ns(),
            parent: self.parent,
        });
        out
    }
}

/// Request-level facts of a serve cell.
pub struct ServeFacts {
    pub requests: u64,
    pub viol_timeout: u64,
    pub viol_other: u64,
    pub cause_sum: u64,
    pub latency: Hist,
}

/// What the output checks and the *C* metrics need from one cell.
pub struct CellFacts {
    pub label: String,
    pub roce: bool,
    pub unfinished: u64,
    pub retx: u64,
    /// *C* metrics of this cell by catalogue name.
    pub counts: Vec<(&'static str, u64)>,
    pub serve: Option<ServeFacts>,
}

impl CellFacts {
    /// The cell's *C* metric `name` (0 when the build does not count it).
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, v)| v)
    }
}

pub struct RepFacts {
    pub setup_s: f64,
    pub wall_s: f64,
    pub elapsed_s: f64,
    pub digest: u64,
    pub cells: Vec<CellFacts>,
}

impl RepFacts {
    pub fn data_pkts(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.count("transport.data_pkts"))
            .sum()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over every flow's completion time and every aggregate counter.
fn digest(h: &mut u64, res: &SimResult) {
    for f in &res.flows {
        fnv(h, f.end.map_or(u64::MAX, |e| e.as_ns()));
        fnv(h, f.start.as_ns());
        fnv(h, f.timeouts);
        fnv(h, f.retx);
    }
    let a = &res.agg;
    for v in [
        a.timeouts,
        a.fast_retx,
        a.data_pkts_sent,
        a.important_pkts,
        a.unimportant_pkts,
        a.clocking_pkts,
        a.clocking_bytes,
        a.drops_color,
        a.drops_dt,
        a.drops_overflow,
        a.drops_green_data,
        a.green_data_pkts,
        a.ce_marked,
        a.pause_frames,
        a.link_pause_fraction.to_bits(),
        a.max_queue_bytes,
        a.wire_drops,
        a.down_drops,
        a.faults_injected,
        a.first_fault_at.as_ns(),
        a.reroutes,
        a.timers_leaked,
        a.duration.as_ns(),
        a.events_scheduled,
        a.rto_causes.total(),
    ] {
        fnv(h, v);
    }
}

fn counts(res: &SimResult) -> Vec<(&'static str, u64)> {
    let a = &res.agg;
    let mut c = vec![
        (
            "netsim.switch.drops",
            a.drops_color + a.drops_dt + a.drops_overflow,
        ),
        ("netsim.switch.ce_marked", a.ce_marked),
        ("netsim.switch.pause_frames", a.pause_frames),
        ("transport.data_pkts", a.data_pkts_sent),
        ("transport.timeouts", a.timeouts),
        ("transport.fast_retx", a.fast_retx),
        ("tlt-core.important_pkts", a.important_pkts),
        ("tlt-core.clocking_pkts", a.clocking_pkts),
        ("dcsim.timers_leaked", a.timers_leaked),
        ("dcsim.sim_duration_us", a.duration.as_ns() / 1_000),
        ("faults.injected", a.faults_injected),
        ("faults.down_drops", a.down_drops),
        ("faults.wire_drops", a.wire_drops),
        ("faults.reroutes", a.reroutes),
        ("workload.flows", res.flows.len() as u64),
    ];
    // The `profile`-feature registry (PR 6): present in the traced build only.
    if let Some(p) = &res.profile {
        let r = &p.reg;
        let stale = r
            .counters()
            .filter(|(k, _)| k.starts_with("event_stale/"))
            .map(|(_, v)| v)
            .sum();
        c.extend([
            ("eventsim.queue_pushes", r.counter("queue_pushes")),
            ("eventsim.queue_pops", r.counter("queue_pops")),
            ("eventsim.stale_pops", stale),
            ("eventsim.queue_peak_depth", r.gauge("queue_peak_depth")),
            ("netsim.switch.exec", r.counter("component_exec/switch")),
            ("netsim.link.exec", r.counter("component_exec/link")),
            ("netsim.link.deliver_transit", r.counter("deliver_transit")),
            (
                "netsim.link.deliver_endpoint",
                r.counter("deliver_endpoint"),
            ),
            ("transport.exec", r.counter("component_exec/transport")),
            (
                "dcsim.events_scheduled",
                r.counter("events_scheduled_total"),
            ),
            ("dcsim.events_executed", r.counter("events_executed_total")),
            (
                "dcsim.events_cancelled",
                r.counter("events_cancelled_total"),
            ),
            ("dcsim.timer.exec", r.counter("component_exec/timer")),
            ("dcsim.timer.disarms", r.counter("timer_disarms")),
            ("faults.exec", r.counter("component_exec/fault")),
            (
                "telemetry.sampler.exec",
                r.counter("component_exec/sampler"),
            ),
        ]);
    }
    c
}

/// Counts that combine across cells by maximum, not by sum.
const MAX_COUNTS: [&str; 1] = ["eventsim.queue_peak_depth"];

/// Runs one cell; returns its facts, set-up seconds and wall seconds.
/// `fold_into` accumulates the metrics registries of the rep's observed
/// cells, as a `--metrics` export does.
fn run_cell(
    cell: &Cell,
    rec: &mut Recorder,
    fold_into: &mut Registry,
    h: &mut u64,
) -> (CellFacts, f64, f64) {
    rec.cell.clone_from(&cell.label);
    let outer = rec.open("cell");
    let t0 = Instant::now();
    let input = rec.span(cell.gen_layer, || (cell.gen)());
    let flows = input.flows;
    let (eng, sink) = rec.span("dcsim.engine_new", || {
        let mut eng = Engine::new(cell.cfg.clone(), flows);
        let sink = cell.observed.then(|| {
            eng.set_metrics();
            let (tracer, sink) = Tracer::new(CountingSink::default());
            eng.set_tracer(tracer);
            sink
        });
        (eng, sink)
    });
    let t1 = Instant::now();
    let res = rec.span("dcsim.run", move || eng.run());
    let summaries = rec.span("netstats.summarize", || {
        (
            summarize_flows(res.flows.iter(), |f| f.fg),
            summarize_flows(res.flows.iter(), |f| !f.fg),
        )
    });
    let serve_rep = input.serve.map(|(wl, slo)| {
        rec.span("serve.account", || {
            serve::account(&cell.label, &wl, &res, slo)
        })
    });
    let registry_keys = res.metrics.as_ref().map_or(0, |reg| {
        rec.span("telemetry.fold", || {
            fold_into.merge(reg);
            std::hint::black_box(fold_into.to_json().len());
            fold_into.counters().count() + fold_into.gauges().count() + fold_into.hists().count()
        })
    });
    let t2 = Instant::now();
    rec.close(outer);

    std::hint::black_box(&summaries);
    digest(h, &res);
    let mut c = counts(&res);
    c.push((
        "telemetry.sink_events",
        sink.map_or(0, |s| s.borrow().events),
    ));
    c.push(("telemetry.registry_keys", registry_keys as u64));
    let serve = serve_rep.map(|rep| {
        let r = &rep.reg;
        let get = |k: &str| r.counter(&format!("{k}/{}", cell.label));
        let cause_prefix = format!("serve_viol_cause/{}/", cell.label);
        ServeFacts {
            requests: get("serve_requests"),
            viol_timeout: get("serve_slo_viol_timeout"),
            viol_other: get("serve_slo_viol_other"),
            cause_sum: r
                .counters()
                .filter(|(k, _)| k.starts_with(&cause_prefix))
                .map(|(_, v)| v)
                .sum(),
            latency: r
                .hist(&format!(
                    "{}{}",
                    telemetry::serve::REQ_LATENCY_PREFIX,
                    cell.label
                ))
                .cloned()
                .unwrap_or_default(),
        }
    });
    let facts = CellFacts {
        label: cell.label.clone(),
        roce: cell.cfg.transport.is_roce(),
        unfinished: res.flows.iter().filter(|f| f.end.is_none()).count() as u64,
        retx: res.flows.iter().map(|f| f.retx).sum(),
        counts: c,
        serve,
    };
    (facts, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

/// One pass over the workload's cells.
pub fn run_rep(w: &Workload, rec: &mut Recorder, rep: usize) -> RepFacts {
    rec.rep = rep;
    rec.cell.clear();
    let started = Instant::now();
    let outer = rec.open("rep");
    let mut fold = Registry::new();
    let mut h = FNV_OFFSET;
    let (mut setup_s, mut wall_s) = (0.0, 0.0);
    let mut cells = Vec::with_capacity(w.cells.len());
    for cell in &w.cells {
        let (facts, s, r) = run_cell(cell, rec, &mut fold, &mut h);
        setup_s += s;
        wall_s += r;
        cells.push(facts);
    }
    if rec.on {
        // A standalone topology build per cell, outside setup_s and wall_s
        // (Engine::new builds its own inside dcsim.engine_new).
        for cell in &w.cells {
            rec.cell.clone_from(&cell.label);
            rec.span("netsim.topology.build", || {
                std::hint::black_box(cell.cfg.topology.build());
            });
        }
    }
    rec.cell.clear();
    rec.close(outer);
    RepFacts {
        setup_s,
        wall_s,
        elapsed_s: started.elapsed().as_secs_f64(),
        digest: h & ((1 << 48) - 1),
        cells,
    }
}

/// Fewest timed reps a time budget may end with: the end-to-end metrics
/// are order statistics over reps.
const MIN_TIMED_REPS: usize = 5;

/// How long to measure.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Timed reps until this much time has passed (and at least five).
    Seconds(Duration),
    /// Exactly this many timed reps.
    Reps(usize),
}

/// What [`timed_reps`] measured.
pub struct Measured {
    pub reps: Vec<RepFacts>,
    /// `VmHWM` of this process, in MB (10^6 bytes), read after the first
    /// timed rep: two passes over the cells, however many reps the time
    /// budget then allows. (Read at the end it would grow with the rep
    /// count, that is, with the speed of the box.) `None` off Linux.
    pub peak_rss_mb: Option<f64>,
}

/// One untimed warm-up rep, then timed reps for the budget.
pub fn timed_reps(w: &Workload, budget: Budget, rec: &mut Recorder) -> Measured {
    let was_on = std::mem::replace(&mut rec.on, false);
    run_rep(w, rec, 0);
    rec.on = was_on;
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut peak_rss_mb = None;
    loop {
        reps.push(run_rep(w, rec, reps.len() + 1));
        if reps.len() == 1 {
            peak_rss_mb = vm_hwm_mb();
        }
        let done = match budget {
            Budget::Seconds(d) => started.elapsed() >= d && reps.len() >= MIN_TIMED_REPS,
            Budget::Reps(n) => reps.len() >= n,
        };
        if done {
            return Measured { reps, peak_rss_mb };
        }
    }
}

/// Sums (or maxes) a *C* metric over the cells of a rep.
pub fn total_counts(rep: &RepFacts) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for cell in &rep.cells {
        for &(k, v) in &cell.counts {
            let slot = out.entry(k).or_insert(0);
            if MAX_COUNTS.contains(&k) {
                *slot = v.max(*slot);
            } else {
                *slot += v;
            }
        }
    }
    out
}

/// The output checks. Returns one message per failed check.
pub fn check(w: &Workload, reps: &[RepFacts]) -> Vec<String> {
    let mut bad = Vec::new();
    let first = &reps[0];
    if let Some(r) = reps.iter().find(|r| r.digest != first.digest) {
        bad.push(format!(
            "reps disagree: sim_digest48 {:012x} vs {:012x}",
            first.digest, r.digest
        ));
    }
    let totals = total_counts(first);
    let get = |k: &str| totals.get(k).copied().unwrap_or(0);
    let unfinished: u64 = first.cells.iter().map(|c| c.unfinished).sum();
    if unfinished > 0 {
        bad.push(format!("{unfinished} flows had no FCT at max_time"));
    }
    if get("dcsim.timers_leaked") > 0 {
        bad.push(format!("{} timers leaked", get("dcsim.timers_leaked")));
    }
    if totals.contains_key("dcsim.events_scheduled")
        && get("dcsim.events_executed") + get("dcsim.events_cancelled")
            != get("dcsim.events_scheduled")
    {
        bad.push(format!(
            "event accounting open: executed {} + cancelled {} != scheduled {}",
            get("dcsim.events_executed"),
            get("dcsim.events_cancelled"),
            get("dcsim.events_scheduled")
        ));
    }
    for &i in &w.lossless {
        let c = &first.cells[i];
        let drops = c.count("netsim.switch.drops");
        if drops > 0 {
            bad.push(format!("{}: {drops} switch drops under PFC", c.label));
        }
    }
    for p in &w.rto_pairs {
        let (base, tlt) = (&first.cells[p.base], &first.cells[p.tlt]);
        // The paper's claim as an inequality that survives model tuning and
        // holds for every seed: TLT takes fewer RTOs than its baseline, or
        // (where the baseline has next to none to remove) at most one per
        // thousand flows.
        let rtos = |c: &CellFacts| c.count("transport.timeouts");
        if rtos(tlt) >= rtos(base) && rtos(tlt) > tlt.count("workload.flows") / 1000 {
            bad.push(format!(
                "{} took {} RTOs, its baseline {} took {}",
                tlt.label,
                rtos(tlt),
                base.label,
                rtos(base)
            ));
        }
    }
    for c in &first.cells {
        if let Some(s) = &c.serve {
            if s.cause_sum != s.viol_timeout {
                bad.push(format!(
                    "{}: cause breakdown {} != timeout violations {}",
                    c.label, s.cause_sum, s.viol_timeout
                ));
            }
        }
    }
    bad
}

/// A timing over the timed reps: the reported value and the spread around it.
pub struct Timing {
    /// The lower quartile over reps for a time, the upper for a rate: the
    /// speed of the undisturbed quarter of the reps. On a shared box
    /// interference only ever adds time, in bursts of seconds; across runs
    /// the fast quartile moves about half as much as the median does.
    pub value: f64,
    pub reps: Summary,
}

pub struct Timings {
    pub setup_s: Timing,
    pub wall_s: Timing,
    pub pkts_per_s: Timing,
}

pub fn timings(reps: &[RepFacts]) -> Timings {
    let of = |f: &dyn Fn(&RepFacts) -> f64, higher_is_better: bool| {
        let reps = summarize(&reps.iter().map(f).collect::<Vec<_>>()).expect("at least one rep");
        Timing {
            value: if higher_is_better { reps.q3 } else { reps.q1 },
            reps,
        }
    };
    Timings {
        setup_s: of(&|r| r.setup_s, false),
        wall_s: of(&|r| r.wall_s, false),
        pkts_per_s: of(&|r| r.data_pkts() as f64 / r.wall_s, true),
    }
}

fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build, Scale, WORKLOADS};

    /// Every workload at smoke scale, every output check armed (and, in the
    /// test profile, every `debug_assert` of the simulator).
    #[test]
    fn smoke_scale_passes_every_check() {
        for (name, _) in WORKLOADS {
            let w = build(name, Scale::Smoke, 11).unwrap();
            let mut rec = Recorder::new(true);
            let reps = timed_reps(&w, Budget::Reps(2), &mut rec).reps;
            assert_eq!(reps.len(), 2);
            assert_eq!(check(&w, &reps), Vec::<String>::new(), "{name}");
            assert_eq!(
                crate::layers::check_closure(&reps, &rec.spans),
                Vec::<String>::new(),
                "{name}"
            );
            let t = timings(&reps);
            assert!(t.setup_s.value > 0.0 && t.wall_s.value > 0.0 && t.pkts_per_s.value > 0.0);
            // Faults and requests are counted on their own workloads only.
            let c = total_counts(&reps[0]);
            assert_eq!(c["faults.injected"] > 0, name == "mix_faults", "{name}");
            let serves = reps[0].cells.iter().any(|c| c.serve.is_some());
            assert_eq!(serves, name.starts_with("serve"), "{name}");
        }
    }

    #[test]
    fn two_runs_of_one_cell_give_the_same_digest() {
        let mut w = build("incast_burst", Scale::Smoke, 4).unwrap();
        w.cells.truncate(1);
        let mut rec = Recorder::new(false);
        let (a, b) = (run_rep(&w, &mut rec, 0), run_rep(&w, &mut rec, 1));
        assert_eq!(a.digest, b.digest);
        assert!(a.digest < 1 << 48);
        let other = build("incast_burst", Scale::Smoke, 5).unwrap();
        assert_ne!(run_rep(&other, &mut rec, 2).digest, a.digest);
        assert!(
            rec.spans.is_empty(),
            "a recorder that is off records nothing"
        );
    }

    #[test]
    fn a_failed_check_is_reported() {
        let w = build("mix_tcp", Scale::Smoke, 2).unwrap();
        let mut reps = timed_reps(&w, Budget::Reps(2), &mut Recorder::new(false)).reps;
        reps[1].digest ^= 1;
        reps[0].cells[0].unfinished = 3;
        let set = |c: &mut CellFacts, name: &str, v: u64| {
            c.counts.iter_mut().find(|(k, _)| *k == name).unwrap().1 = v;
        };
        set(&mut reps[0].cells[2], "netsim.switch.drops", 1);
        let base_rtos = reps[0].cells[0].count("transport.timeouts");
        set(&mut reps[0].cells[1], "transport.timeouts", base_rtos + 5);
        let bad = check(&w, &reps).join("\n");
        for needle in [
            "reps disagree",
            "3 flows had no FCT",
            "under PFC",
            "its baseline",
        ] {
            assert!(bad.contains(needle), "{needle}: {bad}");
        }
    }
}
