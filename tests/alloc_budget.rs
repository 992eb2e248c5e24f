//! Heap-allocation budget of the engine's run loop, and the peak live heap
//! of a serving cell: two exact counters.
//!
//! A counting `#[global_allocator]` tallies, per thread, every allocation
//! made inside `Engine::run`, and the tests bound that count per data
//! packet sent. The lossless cell is a k=4 fat-tree with eight cross-pod
//! 200 kB flows (six-hop routes, five switches each); the lossy cell is a
//! 16-to-1 incast of thirty-two 48 kB flows into one switch whose colour
//! threshold drops 235 unimportant packets, every one fast-retransmitted.
//! The count repeats exactly for a seed on any machine, in debug and
//! release, so a breach is a code change, never noise.
//!
//! Allocations inside `Engine::run` / data packets sent:
//!
//! | cell, transport    | first measured     | tree range sets | flat range sets | per-flow lifetimes | now         | budget per 100 pkts |
//! |--------------------|--------------------|-----------------|-----------------|--------------------|-------------|---------------------|
//! | k=4, DCTCP         | 192 / 1112 (0.17)  | 192 / 1112      | 192 / 1112      | 208 / 1112         | 216 / 1112  | 23                  |
//! | k=4, DCTCP + TLT   | 2472 / 1120 (2.21) | 352 / 1120      | 240 / 1120      | 256 / 1120         | 264 / 1120  | 28                  |
//! | k=4, HPCC          | 6627 / 1600 (4.14) | 3435 / 1600     | 3435 / 1600     | 3451 / 1600        | 3459 / 1600 | 259                 |
//! | incast, DCTCP + TLT| —                  | 947 / 1355      | 896 / 1355      | 960 / 1355         | 992 / 1355  | 86                  |
//!
//! What the differences were, so a breach can be read. First column to
//! second: with TLT on, `WindowSender` trimmed `tx_order` with
//! `BTreeMap::split_off`, which builds a new tree (a leaf, usually an
//! internal node too) on every trimming ACK; and an HPCC data packet cost
//! four allocations — its INT stack's first growth, the regrowth at the
//! fifth hop, the receiver's echo clone, and `Hpcc::measure_inflight`'s
//! `to_vec` — of which the stack's one `reserve_exact` and the echo clone
//! remain. Second to third: `tx_order` was still a `BTreeMap` splitting and
//! merging leaves as the window grew past eleven segments, and `RangeSet`
//! was one whose `insert` and `remove_below` collected the keys they were
//! about to remove into a `Vec`; both are flat now (a ring, a sorted `Vec`)
//! and grow by doubling. Third to fourth: each flow's sender and receiver
//! are built at its `FlowStart`, inside `run`, where `Engine::new` used to
//! build them — two boxes per flow (+16 for eight flows, +64 for 32), a
//! constant per flow, not a cost per packet. Fourth to fifth: a flow's timer
//! slots, loss ring and sender moved into one box built at its `FlowStart`
//! (+8 for eight flows, +32 for 32). Of the lossy cell's 992, 411 are the
//! `Vec` of SACK blocks on each ACK that carries any. Budgets are the
//! measured value plus 20 % at the third column, and still hold.
//!
//! The same allocator keeps each thread's live bytes and their peak, which
//! bounds the heap of building and running a serving cell (the repo
//! benchmark's `serve_k8` / `serve_k24` shape, untruncated, seed 1) — a
//! count that, too, repeats exactly. Peak live heap of `Engine::new` +
//! `run`:
//!
//! | cell, requests (flows)        | eager transports | per-flow lifetimes | running-state box |
//! |-------------------------------|------------------|--------------------|-------------------|
//! | k=8, DCTCP, 384 (6,596)       | 11.56 MB         | 8.82 MB            | 6.75 MB           |
//! | k=8, DCTCP, 512 (8,898)       | 14.42 MB         | 10.74 MB           | 7.95 MB           |
//! | k=24, DCTCP, 512 (9,332)      | 23.66 MB         | 18.52 MB           | 15.59 MB          |
//! | k=24, HPCC, 512 (9,332)       | 25.44 MB         | 18.45 MB           | 15.52 MB          |
//! | incast, DCTCP, — (1,000)      | —                | 4.18 MB            | 4.08 MB           |
//!
//! "Eager transports" is the engine that built every flow's sender and
//! receiver in `Engine::new` and held them, and a per-link fault table, to
//! the end of the run. "Per-flow lifetimes" built a transport at its flow's
//! `FlowStart`, folded the sender once the flow was done and allocated the
//! fault table only once a fault arrived, but kept every flow's timer slots
//! and loss ring in its record from `Engine::new` on. Now those live in the
//! flow's running-state box with the sender, and the completion callbacks
//! are one flat table. The first and last rows are tier-1 tests; the others
//! are `serve_cells_peak_live_heap` (`--ignored`, run in CI). Serve cells
//! are bounded at measured plus 10 %, the incast at measured plus 2 %, so
//! that it fails at the previous column. All budgets are the default
//! build's: the `profile` and `ledger` observers allocate for their own
//! records, so the file is compiled out under those features
//! (the debug-build conservation ledger allocates once, at `Engine::new`).

#![cfg(not(any(feature = "profile", feature = "ledger")))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dcsim::{Engine, FlowSpec, SimConfig};
use eventsim::SimTime;
use netsim::topology::TopologySpec;
use transport::TransportKind;

thread_local! {
    /// Allocations made by this thread (no destructor, so the allocator
    /// may touch it at any point of a thread's life).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed, and the highest
    /// that difference has been since [`peak_live_in`] last reset it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// One allocation event that moved this thread's live bytes by `delta`.
fn count(delta: i64) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition is
// thread-local counter updates, which allocate nothing and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The highest number of bytes `f` held live on this thread at once, over
/// what was live when it began.
fn peak_live_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (PEAK.with(Cell::get).saturating_sub(base) as u64, out)
}

/// Eight 200 kB cross-pod flows on the k=4 fat-tree.
fn cell(cfg: SimConfig) -> Engine {
    let cfg = cfg.with_topology(TopologySpec::paper_fat_tree(4, SimTime::from_us(10)));
    let flows: Vec<FlowSpec> = (0..8)
        .map(|s| FlowSpec::new(s, 15 - s, 200_000, SimTime::from_us(s as u64), true))
        .collect();
    Engine::new(cfg, flows)
}

/// `(allocations inside Engine::run, data packets sent)` for [`cell`].
fn run_cell(cfg: SimConfig) -> (u64, u64) {
    let (allocs, res) = run_counted(cell(cfg));
    (allocs, res.agg.data_pkts_sent)
}

/// Runs `eng` to completion, counting the allocations inside `Engine::run`.
fn run_counted(eng: Engine) -> (u64, dcsim::SimResult) {
    let (allocs, res) = allocs_in(|| eng.run());
    assert!(res.flows.iter().all(|f| f.end.is_some()), "cell completes");
    (allocs, res)
}

fn assert_budget(label: &str, (allocs, pkts): (u64, u64), per_100_pkts: u64) {
    println!("{label}: {allocs} / {pkts}");
    assert!(pkts > 1_000, "{label}: cell too small to average over");
    assert!(
        allocs * 100 <= per_100_pkts * pkts,
        "{label}: {allocs} allocations in Engine::run for {pkts} data packets \
         ({:.2} per packet) exceeds the budget of {per_100_pkts} per 100",
        allocs as f64 / pkts as f64
    );
}

#[test]
fn dctcp_run_loop_stays_within_its_allocation_budget() {
    let cell = run_cell(SimConfig::tcp_family(TransportKind::Dctcp));
    assert_budget("dctcp", cell, 23);
}

#[test]
fn dctcp_tlt_run_loop_stays_within_its_allocation_budget() {
    let cell = run_cell(SimConfig::tcp_family(TransportKind::Dctcp).with_tlt());
    assert_budget("dctcp+tlt", cell, 28);
}

/// The loss path, which the fat-tree cell never takes: a 16-to-1 DCTCP+TLT
/// incast of 48 kB flows into one switch whose colour threshold drops
/// unimportant packets, so receivers hold SACK ranges, senders keep a
/// scoreboard and every drop is fast-retransmitted.
#[test]
fn lossy_dctcp_tlt_incast_stays_within_its_allocation_budget() {
    let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
        .with_topology(dcsim::small_single_switch(17))
        .with_tlt();
    cfg.switch.buffer_bytes = 400_000;
    cfg.switch.color_threshold = Some(80_000);
    let flows: Vec<FlowSpec> = (1..17)
        .flat_map(|s| [0, 2].map(|us| FlowSpec::new(s, 0, 48_000, SimTime::from_us(us), true)))
        .collect();
    let (allocs, res) = run_counted(Engine::new(cfg, flows));
    let a = &res.agg;
    assert!(a.drops_color > 100, "cell drops: {}", a.drops_color);
    assert!(a.fast_retx > 100, "cell fast-retransmits: {}", a.fast_retx);
    assert_budget("lossy dctcp+tlt", (allocs, a.data_pkts_sent), 86);
}

#[test]
fn hpcc_run_loop_stays_within_its_allocation_budget() {
    let cell = run_cell(SimConfig::roce_family(TransportKind::Hpcc));
    assert_budget("hpcc", cell, 259);
}

/// `requests` serving requests (untruncated, seed 1) on the k-ary
/// fat-tree, shaped as the repo benchmark's `serve_k8` / `serve_k24` cells:
/// a quarter of the requests fan out to 32 servers, answers are
/// cache-follower sized and chained on their query's completion.
fn serve_cell(k: usize, kind: TransportKind, requests: usize) -> (SimConfig, Vec<FlowSpec>) {
    let params = serve::ServeParams {
        hosts: k * k * k / 4,
        requests,
        mean_gap: SimTime::from_us(if k == 8 { 20 } else { 10 }),
        fanout: 32,
        fanout_fraction: 0.25,
        query_bytes: 1_600,
        response_cdf: workload::FlowSizeCdf::cache_follower(),
        think: SimTime::from_us(5),
        slo: SimTime::from_ms(2),
    };
    let latency = SimTime::from_us(if kind.is_roce() { 1 } else { 10 });
    let cfg = if kind.is_roce() {
        SimConfig::roce_family(kind)
    } else {
        SimConfig::tcp_family(kind)
    };
    let cfg = cfg
        .with_topology(TopologySpec::paper_fat_tree(k, latency))
        .with_seed(1);
    (cfg, serve::generate(&params, 1).flows)
}

/// Peak live heap of `Engine::new` + `run` on `cfg` and `flows`, each of
/// which must complete.
fn peak_live(cfg: SimConfig, flows: Vec<FlowSpec>) -> u64 {
    let (peak, res) = peak_live_in(|| Engine::new(cfg, flows).run());
    assert!(res.flows.iter().all(|f| f.end.is_some()), "cell completes");
    peak
}

/// Asserts that `label`'s peak live heap is within `budget` bytes.
fn assert_heap(label: &str, peak: u64, budget: u64) {
    println!("{label}: {peak} bytes ({:.2} MB)", peak as f64 / 1e6);
    assert!(
        peak <= budget,
        "peak live heap of the {label}: {peak} bytes, budget {budget}"
    );
}

/// A serving cell runs a few hundred of its thousands of flows at any
/// instant, and its heap follows the running ones: the peak live heap of
/// building and running a k=8 DCTCP serve cell of 384 requests (6,596
/// flows) is bounded at its measured 6,752,484 bytes plus 10 % (11.56 MB
/// when every transport lived from `Engine::new` to the end of the run,
/// 8.82 MB while every flow's timer slots did).
#[test]
fn serve_cell_peak_live_heap_stays_within_its_budget() {
    let (cfg, flows) = serve_cell(8, TransportKind::Dctcp, 384);
    assert_heap("k=8 serve cell", peak_live(cfg, flows), 7_428_000);
}

/// An incast starts every flow at once, so its heap is the running state
/// of the flows that overlap: 1,000 synchronized 32 kB DCTCP flows from
/// eight servers into one (the repo benchmark's `incast_burst` shape at a
/// third of its size, seed 1) peak at a measured 4,080,138 bytes, bounded
/// at that plus 2 % (4,183,654 while every flow's record held its timer
/// slots and loss ring from `Engine::new` on).
#[test]
fn incast_cell_peak_live_heap_stays_within_its_budget() {
    let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
        .with_topology(dcsim::small_single_switch(9))
        .with_seed(1);
    let flows = workload::incast_burst(1_000, 8, 32_000, 1);
    assert_heap("incast cell", peak_live(cfg, flows), 4_162_000);
}

/// The header's 512-request rows (release, a few seconds), each bounded at
/// its measured value plus 10 %: `cargo test --release --test alloc_budget
/// -- --include-ignored --nocapture`.
#[test]
#[ignore]
fn serve_cells_peak_live_heap() {
    for (k, kind, budget) in [
        (8, TransportKind::Dctcp, 8_746_000),
        (24, TransportKind::Dctcp, 17_151_000),
        (24, TransportKind::Hpcc, 17_075_000),
    ] {
        let (cfg, flows) = serve_cell(k, kind, 512);
        let label = format!("k={k} {} serve cell", kind.name());
        assert_heap(&label, peak_live(cfg, flows), budget);
    }
}

/// Attaching the metrics observer allocates its per-port slot table and
/// nothing per port: on the k=8 fat-tree (768 ports) the three formatted
/// name tables it replaced were 2,307 allocations.
#[test]
fn set_metrics_allocates_a_constant_not_per_port() {
    let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
        .with_topology(TopologySpec::paper_fat_tree(8, SimTime::from_us(10)));
    let mut eng = Engine::new(cfg, vec![FlowSpec::new(0, 127, 1_000, SimTime::ZERO, true)]);
    let (allocs, ()) = allocs_in(|| eng.set_metrics());
    assert!(allocs <= 2, "set_metrics made {allocs} allocations");
    assert!(eng.run().metrics.is_some());
}

/// With the metrics observer on, the run loop allocates what the
/// unobserved loop does plus, per observed port, the histogram it
/// accumulates into (a box and its buckets) and that histogram's
/// publication at collect (formatted names, registry keys, a histogram
/// copy, tree nodes), plus the 25 run-level counters and gauges. Measured:
/// 506 more than the unobserved 208 for 64 observed ports; the budget is
/// that plus 20 %. Nothing is allocated per packet.
#[test]
fn observed_dctcp_run_loop_allocates_per_observed_port_not_per_packet() {
    let dctcp = || SimConfig::tcp_family(TransportKind::Dctcp);
    let (plain, pkts) = run_cell(dctcp());
    let mut eng = cell(dctcp());
    eng.set_metrics();
    let (observed, res) = allocs_in(|| eng.run());
    assert_eq!(res.agg.data_pkts_sent, pkts, "observing changes nothing");
    let ports = res.metrics.expect("metrics enabled").hists().count() as u64;
    assert!(ports >= 16, "cell observes too few ports: {ports}");
    let extra = observed - plain;
    assert!(
        extra <= 9 * ports + 32,
        "observer added {extra} allocations for {ports} observed ports and {pkts} data packets"
    );
}

/// The JSONL sinks encode every event into one reused line buffer: after
/// the first event sized it, recording allocates nothing (a `BufferSink`
/// only grows its output vector, amortized).
#[test]
fn jsonl_sinks_allocate_nothing_per_event() {
    use telemetry::{BufferSink, DropWhy, JsonlSink, TraceEvent, TraceSink};
    let events = |i: u32| {
        [
            TraceEvent::Enqueue {
                node: i % 10,
                port: i % 12,
                flow: i,
                seq: u64::from(i) * 1440,
                qlen: 123_456,
            },
            TraceEvent::Drop {
                node: i % 10,
                port: i % 12,
                flow: i,
                seq: u64::from(i) * 1440,
                why: DropWhy::Dynamic,
                green: i & 1 == 0,
            },
            TraceEvent::PortSample {
                node: i % 10,
                port: i % 12,
                qlen: 400_000,
                paused: false,
            },
        ]
    };
    let mut sink = JsonlSink::new(std::io::sink());
    let mut buffered = BufferSink::new();
    // The widest line first, so it is the one that sizes the buffers.
    for ev in events(u32::MAX) {
        sink.record(SimTime::from_ns(u64::MAX), &ev);
        buffered.record(SimTime::from_ns(u64::MAX), &ev);
    }
    let (allocs, ()) = allocs_in(|| {
        for i in 0..1_000 {
            for ev in events(i) {
                sink.record(SimTime::from_ns(u64::from(i)), &ev);
            }
        }
    });
    assert_eq!(sink.lines, 3_003);
    assert_eq!(allocs, 0, "JsonlSink allocated while recording");
    let (allocs, ()) = allocs_in(|| {
        for i in 0..1_000 {
            for ev in events(i) {
                buffered.record(SimTime::from_ns(u64::from(i)), &ev);
            }
        }
    });
    assert_eq!(buffered.lines(), 3_003);
    assert!(allocs <= 16, "BufferSink made {allocs} allocations");
}
