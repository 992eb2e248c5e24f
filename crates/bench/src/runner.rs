//! Shared experiment plumbing: CLI arguments, scheme variants, multi-seed
//! execution, flight-recorder wiring, and the figure [`Table`].
//!
//! Simulations run through [`crate::plan::RunPlan`], which executes the
//! (scheme, seed) grid across worker threads and folds results back in
//! deterministic plan order — the table, CSV, and trace output is
//! byte-identical under any `--jobs` value.

use std::fmt::Display;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use dcsim::{Engine, FlowSpec, SimConfig, SimResult};
use eventsim::SimTime;
use netsim::topology::TopologySpec;
use netsim::LinkSpec;
use netstats::{summarize_flows, FctSummary, Metric};
use telemetry::{BufferSink, Profile, Registry, TraceEvent, Tracer};
use transport::{RtoMode, TransportKind};
use workload::{standard_mix, FlowSizeCdf, MixParams};

/// Experiment scale: `--quick`, the default, or `--full`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Smallest credible scale, for smoke runs (one seed).
    Quick,
    /// Reduced scale (400 background flows).
    Default,
    /// Paper-scale parameters (96 hosts, 10 k background flows). Slow.
    Full,
}

impl Scale {
    /// The provenance label: `quick`, `default` or `full`.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }
}

/// Command-line options common to every experiment binary.
#[derive(Clone, Debug)]
pub struct Args {
    /// `--quick`, `--full`, or neither.
    pub scale: Scale,
    /// Number of seeds to average over (≥ 1).
    pub seeds: u64,
    /// Worker threads for the (scheme, seed) grid; `None` means one per
    /// available core.
    pub jobs: Option<usize>,
    /// Optional CSV output path.
    pub out: Option<String>,
    /// Optional flight-recorder JSONL output path.
    pub trace: Option<String>,
    /// Per-port telemetry sampling period in nanoseconds (with `--trace`).
    pub trace_sample_ns: Option<u64>,
    /// Optional metrics-registry export path (`.csv` for CSV, JSON
    /// otherwise).
    pub metrics: Option<String>,
    /// Optional engine-profile export path (`tlt-profile/v1` JSON).
    /// Meaningful only when built with `--features profile`.
    pub profile_out: Option<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            scale: Scale::Default,
            seeds: 3,
            jobs: None,
            out: None,
            trace: None,
            trace_sample_ns: None,
            metrics: None,
            profile_out: None,
        }
    }
}

impl Args {
    /// Parses `std::env::args()`. Invalid or unknown flags abort with usage
    /// help.
    ///
    /// When `--trace` is given, every simulation the binary subsequently
    /// runs through [`traced_run`] or a [`crate::plan::RunPlan`] appends its
    /// events to the named JSONL file (created fresh at startup).
    pub fn parse() -> Args {
        let args = match Args::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => usage(&msg),
        };
        args.init_outputs();
        args
    }

    /// Installs the global `--trace` / `--metrics` / `--profile-out`
    /// outputs this argument set requests and stamps their provenance.
    /// [`Args::parse`] does this automatically; binaries that pre-extract
    /// bespoke flags and go through [`Args::parse_from`] themselves (e.g.
    /// `serve_grid --scale`) must call it once before running anything.
    pub fn init_outputs(&self) {
        if let Some(path) = &self.trace {
            init_trace(path, self.trace_sample_ns);
        }
        if let Some(path) = &self.metrics {
            init_metrics(path);
        }
        if let Some(path) = &self.profile_out {
            if !cfg!(feature = "profile") {
                eprintln!(
                    "warning: --profile-out was given but the bench crate was built \
                     without --features profile; {path} will stay empty"
                );
            }
            init_profile(path);
        }
        // Stamp provenance into the deterministic exports before any run
        // merges in (meta merges first-wins, so the stamp is pinned).
        if self.metrics.is_some() || self.profile_out.is_some() {
            let prov = crate::profiler::Provenance::deterministic(self);
            if self.metrics.is_some() {
                let mut r = Registry::new();
                prov.stamp(&mut r);
                merge_metrics(&r);
            }
            if self.profile_out.is_some() {
                let mut p = Profile::new();
                prov.stamp_profile(&mut p);
                merge_profile(&p);
            }
        }
    }

    /// Parses an explicit argument list (no I/O, no process exit), so the
    /// validation rules are unit-testable.
    ///
    /// Rejected with an error: `--seeds 0` (the seed loop `1..=0` would run
    /// nothing and print all-zero tables), `--trace-sample-ns 0` (a
    /// zero-period sampler would loop forever), `--jobs 0`, and `--full`
    /// together with `--quick` (no scale is both).
    pub fn parse_from<I>(iter: I) -> Result<Args, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut args = Args::default();
        let mut it = iter.into_iter().map(Into::into);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" | "--quick" => {
                    let scale = if a == "--full" {
                        Scale::Full
                    } else {
                        Scale::Quick
                    };
                    if args.scale != Scale::Default && args.scale != scale {
                        return Err("--full and --quick exclude each other".into());
                    }
                    args.scale = scale;
                }
                "--seeds" => {
                    args.seeds = parse_positive(it.next(), "--seeds")?;
                }
                "--jobs" => {
                    args.jobs = Some(parse_positive(it.next(), "--jobs")? as usize);
                }
                "--out" => {
                    args.out = Some(it.next().ok_or("--out needs a path")?);
                }
                "--trace" => {
                    args.trace = Some(it.next().ok_or("--trace needs a path")?);
                }
                "--trace-sample-ns" => {
                    args.trace_sample_ns = Some(parse_positive(it.next(), "--trace-sample-ns")?);
                }
                "--metrics" => {
                    args.metrics = Some(it.next().ok_or("--metrics needs a path")?);
                }
                "--profile-out" => {
                    args.profile_out = Some(it.next().ok_or("--profile-out needs a path")?);
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.scale == Scale::Quick {
            args.seeds = args.seeds.min(1);
        }
        Ok(args)
    }

    /// The standard-mix parameters for this scale.
    pub fn mix(&self) -> MixParams {
        match self.scale {
            Scale::Quick => MixParams::reduced(100),
            Scale::Default => MixParams::reduced(400),
            Scale::Full => MixParams::paper(),
        }
    }

    /// The worker-thread count to use: `--jobs N`, or every available core.
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }
}

/// Parses a flag value that must be a strictly positive integer.
fn parse_positive(v: Option<String>, flag: &str) -> Result<u64, String> {
    let n: u64 = v
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number"))?;
    if n == 0 {
        return Err(format!("{flag} must be >= 1"));
    }
    Ok(n)
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <experiment> [--full | --quick] [--seeds N] [--jobs N] [--out file.csv] \
         [--trace file.jsonl] [--trace-sample-ns N] [--metrics file.json] \
         [--profile-out file.json]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

/// Process-wide flight-recorder output installed by [`init_trace`].
///
/// Simulations never write here directly: each run records into a private
/// [`BufferSink`] (which is `Send`, so runs may execute on worker threads)
/// and the encoded bytes are appended under this lock afterwards — by
/// [`traced_run`] immediately for sequential callers, and by a
/// [`crate::plan::RunPlan`] in deterministic plan order for parallel grids.
struct TraceState {
    out: BufWriter<File>,
    sample_every: Option<SimTime>,
}

static TRACE: Mutex<Option<TraceState>> = Mutex::new(None);
/// Fast-path gate for [`TRACE`]: workers consult this relaxed load instead
/// of taking the mutex when tracing was never installed. Set (once, before
/// any workers exist) by [`init_trace`] and never cleared, so a relaxed
/// ordering suffices — the mutex acquisition inside the slow path provides
/// the necessary synchronization for the state itself.
static TRACE_ON: AtomicBool = AtomicBool::new(false);

/// Opens (truncating) the JSONL flight-recorder file at `path` and routes
/// every subsequent [`traced_run`] / [`crate::plan::RunPlan`] simulation
/// through it. `sample_ns`, when set, enables per-port
/// `port_sample` telemetry at that period for configs that do not already
/// request their own.
///
/// [`Args::parse`] calls this when `--trace` is present; experiments with
/// bespoke main loops may also call it directly.
pub fn init_trace(path: &str, sample_ns: Option<u64>) {
    let file = File::create(path)
        .unwrap_or_else(|e| usage(&format!("cannot create trace file {path}: {e}")));
    *TRACE.lock().unwrap() = Some(TraceState {
        out: BufWriter::new(file),
        sample_every: sample_ns.map(SimTime::from_ns),
    });
    TRACE_ON.store(true, Ordering::Relaxed);
}

/// The installed flight recorder's sampling period: `None` when tracing is
/// off, `Some(sample_every)` when on.
pub(crate) fn trace_config() -> Option<Option<SimTime>> {
    if !TRACE_ON.load(Ordering::Relaxed) {
        return None;
    }
    TRACE.lock().unwrap().as_ref().map(|s| s.sample_every)
}

/// Appends one run's (or one plan's) encoded trace bytes to the installed
/// flight-recorder file. No-op when tracing is off or `bytes` is empty.
pub(crate) fn append_trace(bytes: &[u8]) {
    if bytes.is_empty() || !TRACE_ON.load(Ordering::Relaxed) {
        return;
    }
    if let Some(state) = TRACE.lock().unwrap().as_mut() {
        state.out.write_all(bytes).expect("write trace file");
        state.out.flush().expect("flush trace file");
    }
}

/// Process-wide metrics export installed by [`init_metrics`]: the merged
/// registry plus its output path. The file is rewritten after every merge,
/// so at any instant it holds a valid document covering every run so far.
struct MetricsOut {
    path: String,
    reg: Registry,
}

static METRICS: Mutex<Option<MetricsOut>> = Mutex::new(None);
/// Fast-path gate for [`METRICS`]; see [`TRACE_ON`] for the protocol.
static METRICS_ON: AtomicBool = AtomicBool::new(false);

/// Routes every subsequent simulation's metrics registry into `path`
/// (written as CSV when the path ends in `.csv`, pretty JSON otherwise).
/// Registries merge deterministically — counters sum, gauges take the max,
/// histograms add bucket-wise — in plan order, so the exported file is
/// byte-identical under any `--jobs` value.
///
/// [`Args::parse`] calls this when `--metrics` is present.
pub fn init_metrics(path: &str) {
    let mut state = MetricsOut {
        path: path.to_string(),
        reg: Registry::new(),
    };
    write_metrics(&mut state);
    *METRICS.lock().unwrap() = Some(state);
    METRICS_ON.store(true, Ordering::Relaxed);
}

/// Whether a metrics export is installed.
pub(crate) fn metrics_on() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// Merges one run's (or one plan's) registry into the installed export and
/// rewrites the file. No-op when `--metrics` is off.
pub(crate) fn merge_metrics(reg: &Registry) {
    if !METRICS_ON.load(Ordering::Relaxed) {
        return;
    }
    if let Some(state) = METRICS.lock().unwrap().as_mut() {
        state.reg.merge(reg);
        write_metrics(state);
    }
}

fn write_metrics(state: &mut MetricsOut) {
    let body = if state.path.ends_with(".csv") {
        state.reg.to_csv()
    } else {
        state.reg.to_json()
    };
    std::fs::write(&state.path, body)
        .unwrap_or_else(|e| usage(&format!("cannot write metrics file {}: {e}", state.path)));
}

/// Process-wide engine-profile export installed by [`init_profile`]: the
/// merged `tlt-profile/v1` document plus its output path. Mirrors the
/// metrics export: rewritten after every merge, byte-identical under any
/// `--jobs` value because merges happen in plan order.
struct ProfileOut {
    path: String,
    prof: Profile,
}

static PROFILE: Mutex<Option<ProfileOut>> = Mutex::new(None);
/// Fast-path gate for [`PROFILE`]; see [`TRACE_ON`] for the protocol.
static PROFILE_ON: AtomicBool = AtomicBool::new(false);

/// Routes every subsequent simulation's engine profile into `path` as
/// `tlt-profile/v1` JSON. Only runs built with the `profile` feature
/// produce profiles; without it the export holds just the provenance
/// stamp. [`Args::parse`] calls this when `--profile-out` is present.
pub fn init_profile(path: &str) {
    let mut state = ProfileOut {
        path: path.to_string(),
        prof: Profile::new(),
    };
    write_profile(&mut state);
    *PROFILE.lock().unwrap() = Some(state);
    PROFILE_ON.store(true, Ordering::Relaxed);
}

/// Merges one run's (or one plan's) engine profile into the installed
/// export and rewrites the file. No-op when `--profile-out` is off.
pub(crate) fn merge_profile(prof: &Profile) {
    if !PROFILE_ON.load(Ordering::Relaxed) {
        return;
    }
    if let Some(state) = PROFILE.lock().unwrap().as_mut() {
        state.prof.merge(prof);
        write_profile(state);
    }
}

fn write_profile(state: &mut ProfileOut) {
    std::fs::write(&state.path, state.prof.to_json())
        .unwrap_or_else(|e| usage(&format!("cannot write profile file {}: {e}", state.path)));
}

/// Runs one simulation, recording it into a private buffer when `trace` is
/// on and populating [`SimResult::metrics`] when `metrics` is on. Each
/// traced run is bracketed by `run_start` (with `label` and the config's
/// seed) and `run_end` (with the producer's own aggregate totals),
/// making the trace self-verifying for `trace_inspect`.
///
/// This is the thread-agnostic core: it touches no global state, so
/// [`crate::plan::RunPlan`] workers call it concurrently and merge the
/// returned buffers in plan order.
pub(crate) fn buffered_run(
    label: &str,
    mut cfg: SimConfig,
    flows: Vec<FlowSpec>,
    trace: bool,
    sample_every: Option<SimTime>,
    metrics: bool,
) -> (SimResult, Option<Vec<u8>>) {
    if trace && cfg.trace_sample_every.is_none() {
        cfg.trace_sample_every = sample_every;
    }
    let seed = cfg.seed;
    let mut eng = Engine::new(cfg, flows);
    if metrics {
        eng.set_metrics();
    }
    if !trace {
        return (eng.run(), None);
    }
    let (tracer, sink) = Tracer::new(BufferSink::new());
    tracer.emit(SimTime::ZERO, || TraceEvent::RunStart {
        label: label.to_string(),
        seed,
    });
    eng.set_tracer(tracer.clone());
    let res = eng.run();
    tracer.emit(res.agg.duration, || TraceEvent::RunEnd {
        drops_color: res.agg.drops_color,
        drops_dt: res.agg.drops_dt,
        drops_overflow: res.agg.drops_overflow,
        wire_drops: res.agg.wire_drops,
        down_drops: res.agg.down_drops,
        pause_frames: res.agg.pause_frames,
        timeouts: res.agg.timeouts,
        rto_causes: res.agg.rto_causes,
    });
    let bytes = sink.borrow_mut().take_bytes();
    (res, Some(bytes))
}

/// Runs one simulation, recording it to the flight recorder when one is
/// installed ([`init_trace`]), and appends its events to the trace file
/// immediately; likewise the metrics export ([`init_metrics`]). Sequential
/// convenience for bespoke experiment loops; grids should go through a
/// [`crate::plan::RunPlan`].
pub fn traced_run(label: &str, cfg: SimConfig, flows: Vec<FlowSpec>) -> SimResult {
    let sample_every = trace_config();
    let (res, bytes) = buffered_run(
        label,
        cfg,
        flows,
        sample_every.is_some(),
        sample_every.flatten(),
        metrics_on(),
    );
    if let Some(b) = bytes {
        append_trace(&b);
    }
    if let Some(r) = &res.metrics {
        merge_metrics(r);
    }
    if let Some(p) = &res.profile {
        merge_profile(p);
    }
    res
}

/// The leaf–spine topology matching a [`MixParams`] instance, with the
/// paper's per-family link latency (10 μs TCP, 1 μs RoCE).
pub fn mix_topology(p: &MixParams, roce: bool) -> TopologySpec {
    let delay = if roce {
        SimTime::from_us(1)
    } else {
        SimTime::from_us(10)
    };
    let link = LinkSpec::new(p.link_bw_bps, delay);
    TopologySpec::LeafSpine {
        cores: p.cores,
        tors: p.tors,
        hosts_per_tor: p.hosts / p.tors,
        host_link: link,
        fabric_link: link,
    }
}

/// Loss-recovery variants of the TCP family compared in Figures 5/7/15.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpVariant {
    /// 4 ms RTO_min (Linux default).
    Baseline,
    /// Baseline plus Tail Loss Probe.
    Tlp,
    /// 200 μs RTO_min (high-resolution timers \[54\]).
    Us200,
    /// TLT.
    Tlt,
}

impl TcpVariant {
    /// All four, in the paper's presentation order.
    pub const ALL: [TcpVariant; 4] = [
        TcpVariant::Baseline,
        TcpVariant::Tlp,
        TcpVariant::Us200,
        TcpVariant::Tlt,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            TcpVariant::Baseline => "base",
            TcpVariant::Tlp => "+TLP",
            TcpVariant::Us200 => "200us",
            TcpVariant::Tlt => "+TLT",
        }
    }
}

/// Builds a TCP-family config for `kind` under `variant`, scaled to the
/// mix's topology.
pub fn tcp_cfg(p: &MixParams, kind: TransportKind, variant: TcpVariant, pfc: bool) -> SimConfig {
    let mut cfg = SimConfig::tcp_family(kind).with_topology(mix_topology(p, false));
    match variant {
        TcpVariant::Baseline => {}
        TcpVariant::Tlp => cfg.tlp = true,
        TcpVariant::Us200 => {
            cfg.rto = RtoMode::microsecond();
        }
        TcpVariant::Tlt => cfg = cfg.with_tlt(),
    }
    if pfc {
        cfg = cfg.with_pfc();
    }
    cfg
}

/// Builds a RoCE-family config, optionally with TLT and/or PFC.
pub fn roce_cfg(p: &MixParams, kind: TransportKind, tlt: bool, pfc: bool) -> SimConfig {
    let mut cfg = SimConfig::roce_family(kind).with_topology(mix_topology(p, true));
    if tlt {
        cfg = cfg.with_tlt();
    }
    if pfc {
        cfg = cfg.with_pfc();
    }
    cfg
}

/// Either family's baseline or TLT config: [`roce_cfg`] for a RoCE `kind`,
/// otherwise [`tcp_cfg`] under [`TcpVariant::Baseline`] or
/// [`TcpVariant::Tlt`].
pub fn scheme_cfg(p: &MixParams, kind: TransportKind, tlt: bool, pfc: bool) -> SimConfig {
    if kind.is_roce() {
        return roce_cfg(p, kind, tlt, pfc);
    }
    let v = if tlt {
        TcpVariant::Tlt
    } else {
        TcpVariant::Baseline
    };
    tcp_cfg(p, kind, v, pfc)
}

/// The per-seed standard mix over `cdf`: `p` with its seed replaced.
pub fn mix_flows(cdf: &FlowSizeCdf, p: MixParams) -> impl Fn(u64) -> Vec<FlowSpec> + Sync + '_ {
    move |seed| standard_mix(cdf, MixParams { seed, ..p })
}

/// The outcome of one simulation, pre-summarized.
pub struct MixOutcome {
    /// Foreground-flow FCT summary.
    pub fg: FctSummary,
    /// Background-flow FCT summary.
    pub bg: FctSummary,
    /// Engine aggregates.
    pub agg: dcsim::AggregateStats,
}

impl MixOutcome {
    /// Summarizes a raw simulation result.
    pub fn from_result(res: SimResult) -> MixOutcome {
        MixOutcome {
            fg: summarize_flows(res.flows.iter(), |f| f.fg),
            bg: summarize_flows(res.flows.iter(), |f| !f.fg),
            agg: res.agg,
        }
    }
}

/// Cross-seed metrics of one scheme (one bar/line of a figure).
#[derive(Clone, Debug, Default)]
pub struct SchemeResult {
    /// Scheme label.
    pub name: String,
    /// Foreground 99.9th-percentile FCT (ms).
    pub fg_p999_ms: Metric,
    /// Foreground 99th-percentile FCT (ms).
    pub fg_p99_ms: Metric,
    /// Background average FCT (ms).
    pub bg_avg_ms: Metric,
    /// Background goodput (Gbps).
    pub bg_goodput_gbps: Metric,
    /// Timeouts per 1 k flows (all flows).
    pub timeouts_per_1k: Metric,
    /// PFC PAUSE frames per 1 k flows.
    pub pause_per_1k: Metric,
    /// Mean fraction of time a (paused-at-least-once) link was paused.
    pub pause_frac: Metric,
    /// Fraction of data packets marked important.
    pub important_frac: Metric,
    /// Important-packet loss rate at switches.
    pub important_loss: Metric,
    /// Payload bytes injected by important ACK-clocking.
    pub clocking_kb: Metric,
    /// Largest egress queue observed (kB).
    pub max_queue_kb: Metric,
    /// Median of the sampled deepest-queue series (kB).
    pub median_queue_kb: Metric,
    /// Raw RTO count summed over all flows (recovery tables).
    pub timeouts_total: Metric,
    /// Raw fast-retransmission count summed over all flows.
    pub fast_retx_total: Metric,
    /// Frames destroyed on downed links (plus reroute-orphaned frames).
    pub down_drops: Metric,
    /// Frames lost to injected wire corruption.
    pub wire_drops: Metric,
    /// Time from the first injected fault to the end of the run (ms);
    /// zero when the run had no faults.
    pub recovery_ms: Metric,
    /// Simulator events scheduled, summed over this scheme's seeds (work
    /// accounting for events/sec reporting).
    pub events_scheduled: u64,
}

impl SchemeResult {
    /// Folds one run's outcome in.
    pub fn add(&mut self, o: &MixOutcome) {
        let total_flows = (o.fg.count + o.bg.count).max(1) as f64;
        self.fg_p999_ms.add(o.fg.p999 * 1e3);
        self.fg_p99_ms.add(o.fg.p99 * 1e3);
        self.bg_avg_ms.add(o.bg.avg * 1e3);
        self.bg_goodput_gbps.add(o.bg.goodput_bps / 1e9);
        self.timeouts_per_1k
            .add(o.agg.timeouts as f64 * 1000.0 / total_flows);
        self.pause_per_1k
            .add(o.agg.pause_frames as f64 * 1000.0 / total_flows);
        self.pause_frac.add(o.agg.link_pause_fraction);
        self.important_frac.add(o.agg.important_fraction());
        self.important_loss.add(o.agg.important_loss_rate());
        self.clocking_kb.add(o.agg.clocking_bytes as f64 / 1e3);
        self.max_queue_kb.add(o.agg.max_queue_bytes as f64 / 1e3);
        let mut qs = o.agg.queue_samples.clone();
        self.median_queue_kb
            .add(qs.percentile(50.0).unwrap_or(0.0) / 1e3);
        self.timeouts_total.add(o.agg.timeouts as f64);
        self.fast_retx_total.add(o.agg.fast_retx as f64);
        self.down_drops.add(o.agg.down_drops as f64);
        self.wire_drops.add(o.agg.wire_drops as f64);
        self.recovery_ms.add(if o.agg.faults_injected > 0 {
            (o.agg.duration - o.agg.first_fault_at).as_secs_f64() * 1e3
        } else {
            0.0
        });
        self.events_scheduled += o.agg.events_scheduled;
    }
}

/// One metric column of a figure: its printed head, its CSV name, the
/// [`SchemeResult`] field it reads and the CSV precision of that field's
/// cross-seed mean (scientific notation when `sci`). The catalogue below
/// holds one per column the figures print.
#[derive(Clone, Copy)]
pub struct Col {
    head: &'static str,
    csv: &'static str,
    get: fn(&SchemeResult) -> &Metric,
    prec: usize,
    sci: bool,
}

impl Col {
    /// This column under another printed head.
    pub const fn head(self, head: &'static str) -> Col {
        Col { head, ..self }
    }

    /// This column under another CSV name.
    pub const fn csv(self, csv: &'static str) -> Col {
        Col { csv, ..self }
    }

    /// The CSV cell: `r`'s cross-seed mean.
    fn cell(&self, r: &SchemeResult) -> String {
        let v = (self.get)(r).mean();
        if self.sci {
            format!("{:.*e}", self.prec, v)
        } else {
            format!("{:.*}", self.prec, v)
        }
    }
}

const fn col(
    head: &'static str,
    csv: &'static str,
    get: fn(&SchemeResult) -> &Metric,
    prec: usize,
) -> Col {
    Col {
        head,
        csv,
        get,
        prec,
        sci: false,
    }
}

/// Foreground 99.9th-percentile FCT.
pub const FG_P999: Col = col("fg p99.9 (ms)", "fg_p999_ms", |r| &r.fg_p999_ms, 4);
/// Foreground 99th-percentile FCT.
pub const FG_P99: Col = col("fg p99 (ms)", "fg_p99_ms", |r| &r.fg_p99_ms, 4);
/// Background average FCT.
pub const BG_AVG: Col = col("bg avg (ms)", "bg_avg_ms", |r| &r.bg_avg_ms, 4);
/// Background goodput.
pub const BG_GBPS: Col = col("bg gbps", "bg_goodput_gbps", |r| &r.bg_goodput_gbps, 4);
/// Timeouts per 1 k flows.
pub const TO_1K: Col = col("TO/1k", "timeouts_per_1k", |r| &r.timeouts_per_1k, 3);
/// PAUSE frames per 1 k flows.
pub const PAUSE_1K: Col = col("PAUSE/1k", "pause_per_1k", |r| &r.pause_per_1k, 3);
/// Fraction of time a paused link spent paused.
pub const PAUSE_FRAC: Col = col("pause frac", "pause_frac", |r| &r.pause_frac, 5);
/// Fraction of data packets marked important.
pub const IMP_FRAC: Col = col("important frac", "important_frac", |r| &r.important_frac, 4);
/// Important-packet loss rate.
pub const IMP_LOSS: Col = Col {
    sci: true,
    ..col("imp loss", "important_loss", |r| &r.important_loss, 3)
};
/// Payload injected by important ACK-clocking.
pub const CLOCK_KB: Col = col("clock kB", "clocking_kb", |r| &r.clocking_kb, 2);
/// Largest egress queue.
pub const MAX_Q: Col = col("max q (kB)", "max_queue_kb", |r| &r.max_queue_kb, 1);
/// Median of the sampled deepest-queue series.
pub const MEDIAN_Q: Col = col(
    "median q (kB)",
    "median_queue_kb",
    |r| &r.median_queue_kb,
    1,
);
/// Raw RTO count.
pub const RTO: Col = col("RTO", "rto", |r| &r.timeouts_total, 1);
/// Raw fast-retransmission count.
pub const FAST_RTX: Col = col("fast-rtx", "fast_retx", |r| &r.fast_retx_total, 1);
/// Frames destroyed on downed links.
pub const DOWN_DROPS: Col = col("down-drop", "down_drops", |r| &r.down_drops, 1);
/// Frames lost to injected wire corruption.
pub const WIRE_DROPS: Col = col("wire-drop", "wire_drops", |r| &r.wire_drops, 1);
/// Time from the first injected fault to the end of the run.
pub const RECOVERY: Col = col("recov ms", "recovery_ms", |r| &r.recovery_ms, 4);

/// A figure's printed table and its `--out` CSV, filled in plan order.
///
/// The CSV header is the key columns, then the table's metric columns. A
/// [`Table::row`] writes its keys, then, per metric column, the mean when
/// the current [`Table::section`] shows that column (matched by CSV name)
/// and an empty cell when it does not.
pub struct Table {
    out: Option<String>,
    header: Vec<&'static str>,
    keys: usize,
    shown: Vec<Col>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table whose CSV header is `keys` followed by the CSV names of
    /// `cols`. Tables filled only by [`Table::across`] or [`Table::push`]
    /// pass their whole header as `keys`.
    pub fn new(args: &Args, keys: &[&'static str], cols: &[Col]) -> Table {
        let mut header = keys.to_vec();
        header.extend(cols.iter().map(|c| c.csv));
        Table {
            out: args.out.clone(),
            header,
            keys: keys.len(),
            shown: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Prints a section head, `title` over the heads of `shown`, the
    /// columns the rows after it print.
    pub fn section(&mut self, title: &str, shown: &[Col]) {
        let heads: Vec<&str> = shown.iter().map(|c| c.head).collect();
        print_header(title, &heads);
        self.shown = shown.to_vec();
    }

    /// Prints `r` under the current section and adds its CSV row.
    pub fn row(&mut self, keys: &[&dyn Display], r: &SchemeResult) {
        let metrics: Vec<&Metric> = self.shown.iter().map(|c| (c.get)(r)).collect();
        print_row(&r.name, &metrics);
        let mut row: Vec<String> = keys.iter().map(ToString::to_string).collect();
        for name in &self.header[self.keys..] {
            let shown = self.shown.iter().find(|c| c.csv == *name);
            row.push(shown.map_or_else(String::new, |c| c.cell(r)));
        }
        self.rows.push(row);
    }

    /// Prints one row of a scheme-per-column matrix, `label` then `col` of
    /// each of `rs`, and adds the CSV row `keys` then each of their means.
    pub fn across(
        &mut self,
        label: &dyn Display,
        keys: &[&dyn Display],
        rs: &[SchemeResult],
        col: Col,
    ) {
        let metrics: Vec<&Metric> = rs.iter().map(col.get).collect();
        print_row(&label.to_string(), &metrics);
        let mut row: Vec<String> = keys.iter().map(ToString::to_string).collect();
        row.extend(rs.iter().map(|r| col.cell(r)));
        self.rows.push(row);
    }

    /// Adds a CSV row the figure formats itself.
    pub fn push(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Writes the CSV if `--out` was given.
    pub fn finish(self) {
        if let Some(path) = &self.out {
            netstats::write_csv(path, &self.header, &self.rows).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
}

/// Prints a header line for a paper-style table.
pub fn print_header(title: &str, cols: &[&str]) {
    println!("\n== {title} ==");
    print!("{:<28}", "scheme");
    for c in cols {
        print!("{c:>16}");
    }
    println!();
}

/// Prints one row, `mean ±std` per metric.
fn print_row(name: &str, metrics: &[&Metric]) {
    print!("{name:<28}");
    for m in metrics {
        print!("{:>10.3}±{:<5.3}", m.mean(), m.std());
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse_from(args.iter().copied())
    }

    #[test]
    fn parse_defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Default);
        assert_eq!(a.seeds, 3);
        assert_eq!(a.jobs, None);
        assert!(a.effective_jobs() >= 1);
    }

    #[test]
    fn parse_flags() {
        let a = parse(&[
            "--full",
            "--seeds",
            "5",
            "--jobs",
            "2",
            "--out",
            "x.csv",
            "--trace",
            "t.jsonl",
            "--trace-sample-ns",
            "1000",
            "--metrics",
            "m.json",
            "--profile-out",
            "p.json",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.seeds, 5);
        assert_eq!(a.jobs, Some(2));
        assert_eq!(a.effective_jobs(), 2);
        assert_eq!(a.out.as_deref(), Some("x.csv"));
        assert_eq!(a.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(a.trace_sample_ns, Some(1000));
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
        assert_eq!(a.profile_out.as_deref(), Some("p.json"));
    }

    /// Regression: `--seeds 0` used to be accepted, making the `1..=0`
    /// seed loop run nothing and print all-zero tables with no warning.
    #[test]
    fn parse_rejects_zero_values() {
        assert!(parse(&["--seeds", "0"]).unwrap_err().contains("--seeds"));
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("--jobs"));
        assert!(parse(&["--trace-sample-ns", "0"])
            .unwrap_err()
            .contains("--trace-sample-ns"));
    }

    /// Regression: `--full --quick` used to be accepted, giving paper-scale
    /// mixes stamped `full` under quick's one-seed cap and shrunken grids.
    #[test]
    fn parse_rejects_full_with_quick() {
        for pair in [["--full", "--quick"], ["--quick", "--full"]] {
            assert!(parse(&pair).unwrap_err().contains("--full and --quick"));
        }
        assert_eq!(parse(&["--quick", "--quick"]).unwrap().scale, Scale::Quick);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse(&["--seeds", "abc"]).is_err());
        assert!(parse(&["--seeds"]).is_err());
        assert!(parse(&["--wat"]).unwrap_err().contains("--wat"));
        assert!(parse(&["--out"]).is_err());
    }

    #[test]
    fn quick_caps_seeds() {
        let a = parse(&["--quick", "--seeds", "5"]).unwrap();
        assert_eq!(a.seeds, 1);
    }
}
