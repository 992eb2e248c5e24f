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
//! | cell, transport    | first measured     | tree range sets | flat range sets | per-flow lifetimes | running-state box | frame + loss summary | now         | budget per 100 pkts |
//! |--------------------|--------------------|-----------------|-----------------|--------------------|-------------------|----------------------|-------------|---------------------|
//! | k=4, DCTCP         | 192 / 1112 (0.17)  | 192 / 1112      | 192 / 1112      | 208 / 1112         | 216 / 1112        | 216 / 1112           | 90 / 1112   | 11                  |
//! | k=4, DCTCP + TLT   | 2472 / 1120 (2.21) | 352 / 1120      | 240 / 1120      | 256 / 1120         | 264 / 1120        | 264 / 1120           | 122 / 1120  | 13                  |
//! | k=4, HPCC          | 6627 / 1600 (4.14) | 3435 / 1600     | 3435 / 1600     | 3451 / 1600        | 3459 / 1600       | 3479 / 1600          | 3321 / 1600 | 210                 |
//! | incast, DCTCP + TLT| —                  | 947 / 1355      | 896 / 1355      | 960 / 1355         | 992 / 1355        | 957 / 1355           | 830 / 1355  | 64                  |
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
//! (+8 for eight flows, +32 for 32). Fifth to sixth: a lossy flow's loss
//! ring, a `VecDeque` grown by doubling, became one boxed summary made at
//! its first loss (−35), and the packet slab moved SACK blocks and INT
//! stacks into a side pool, whose own amortised growth is HPCC's +20 (the
//! lists themselves still move with their packets, allocation for
//! allocation). Sixth to seventh: every switch egress queue and host NIC
//! queue is threaded through the packet slab, where each was a `VecDeque`
//! that allocated on its port's first frame and reallocated as it doubled
//! (−126 on the fat-tree cells, −158 on HPCC's, −79 on the incast); and a
//! TLT sender reserves its first window of `tx_order` at its first
//! transmission where the ring grew from empty by doubling, 4 → 8 → 16
//! entries (−16 on DCTCP + TLT, −48 on the incast). Of the lossy cell's
//! 830, 411 are the `Vec` of SACK blocks on each ACK that carries any.
//! Each budget is the measured count per 100 packets rounded up, plus 2:
//! one more allocation per 50 data packets fits, one per 10 fails every
//! row (the 20 % margins at the third column had grown to 2.8 times
//! DCTCP's count and caught nothing per packet).
//!
//! That `tx_order` growth is also why a TLT incast reallocates more than
//! its baseline: on `incast_burst`'s 3,000-flow cells (seeds 7 and 8) a
//! realloc-size histogram reads 9,059–9,062 reallocations without TLT
//! (3,003 each of 32 → 64, 64 → 128 and 128 → 256 bytes) and 15,059–15,067
//! with it, the extra ≈ 6,000 being one more 32 → 64 and 64 → 128 per
//! flow. With the first window reserved the TLT cells read 9,179–9,254,
//! the 3,000 extra pairs replaced by 121–195 growths of 80 → 160 bytes, and
//! the TCP + TLT cell's peak live heap falls 7,652,986 → 7,511,322 bytes.
//!
//! The same allocator keeps each thread's live bytes and their peak, which
//! bounds the heap of building and running a serving cell (the repo
//! benchmark's `serve_k8` / `serve_k24` shape, untruncated, seed 1) — a
//! count that, too, repeats exactly. Peak live heap of generating the
//! flows, `Engine::new` and `run`:
//!
//! | cell, requests (flows)        | eager transports | per-flow lifetimes | running-state box | sized to the run | frame + loss summary | same, counted in full | slab queues, specs kept |
//! |-------------------------------|------------------|--------------------|-------------------|------------------|----------------------|-----------------------|-------------------------|
//! | k=8, DCTCP, 384 (6,596)       | 11.56 MB         | 8.82 MB            | 6.75 MB           | 4.99 MB          | 4.65 MB              | 5,045,932 B           | 4,804,348 B             |
//! | k=8, DCTCP, 512 (8,898)       | 14.42 MB         | 10.74 MB           | 7.95 MB           | 5.68 MB          | 5.37 MB              | 6,154,804 B           | 5,834,390 B             |
//! | k=24, DCTCP, 512 (9,332)      | 23.66 MB         | 18.52 MB           | 15.59 MB          | 11.84 MB         | 11.18 MB             | 11,964,772 B          | 10,315,940 B            |
//! | k=24, HPCC, 512 (9,332)       | 25.44 MB         | 18.45 MB           | 15.52 MB          | 11.35 MB         | 11.40 MB             | 12,184,004 B          | 9,945,892 B             |
//! | incast, DCTCP, — (1,000)      | —                | 4.18 MB            | 4.08 MB           | 4.01 MB          | 3.14 MB              | 3,184,978 B           | 3,126,802 B             |
//! | incast, TCP, — (3,000)        | —                | —                  | —                 | 10.62 MB         | 8.50 MB              | 8,646,938 B           | 8,490,458 B             |
//!
//! The columns up to "frame + loss summary" read low by the capacity of
//! the caller's flow list: the flows were made before the window opened,
//! `Engine::new` consumed them, and the free was credited against the
//! peak (786,432 B on the k=24 rows and the k=8 512-request row, 393,216
//! on the 384-request row, 48,000 and 144,000 on the incasts). "Same,
//! counted in full" is that engine measured with the flows made inside the
//! window, as every row is now.
//! "Eager transports" is the engine that built every flow's sender and
//! receiver in `Engine::new` and held them, and a per-link fault table, to
//! the end of the run. "Per-flow lifetimes" built a transport at its flow's
//! `FlowStart`, folded the sender once the flow was done and allocated the
//! fault table only once a fault arrived, but kept every flow's timer slots
//! and loss ring in its record from `Engine::new` on. "Running-state box"
//! moved those into one box with the sender and made the completion
//! callbacks one flat table. "Sized to the run" keeps no switch for a host,
//! derives each flow's paths instead of holding two boxed slices, and frees
//! the fabric (switches, port table, host queues, packet slab, route table)
//! at collect before the flow records and pooled samples are built, where
//! the peak used to be. "Frame + loss summary" stores each in-flight
//! packet as a 56-byte frame with its SACK/INT lists in a side pool (the
//! slot was a 96-byte `Packet` whose two list headers are empty on every
//! data frame), and keeps a lossy flow's losses in one fixed summary made
//! at its first loss instead of a ring of up to 64; HPCC's row rises by
//! the pool. "Slab queues, specs kept" threads every switch and NIC queue
//! through the slab's per-slot links, so an idle port keeps no buffer
//! (−1,648,832 B on the k=24 DCTCP row, −2,238,112 on HPCC's, −58,176 and
//! −156,480 on the incasts, where the peak is in the run); keeps the
//! caller's spec list, shrunk to its length, where each flow's record held
//! a copy (the record is 56 bytes, was 104: the same 48 bytes a flow, now
//! in one list, so no row moves for it); and frees every receiver at
//! collect with the fabric (−145,924 and −320,414 on the k=8 rows, whose
//! peak is at collect; −95,660 more on the 384-request row is the queues).
//! The first row and the
//! 1,000-flow incast are tier-1 tests; the
//! 512-request rows are `serve_cells_peak_live_heap` and the 3,000-flow
//! incast (the repo benchmark's `incast_burst` TCP cell) is
//! `tcp_incast_cell_peak_live_heap` (both `--ignored`, run in CI). Serve
//! cells are bounded at measured plus 10 %, which fails at the previous
//! column but one; the incasts at measured plus 1.4 %, a margin that fails
//! at the previous column and with either half of the last change undone.
//! Every row runs unobserved (the debug-build conservation ledger
//! allocates once, at `Engine::new`); the last rows attach one observer
//! each and bound what it adds.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_macros,
    reason = "the counting allocator keeps per-thread tallies; test code never runs in a shard"
)]

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
#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; every method forwards to `System`"
)]
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
    assert_budget("dctcp", cell, 11);
}

#[test]
fn dctcp_tlt_run_loop_stays_within_its_allocation_budget() {
    let cell = run_cell(SimConfig::tcp_family(TransportKind::Dctcp).with_tlt());
    assert_budget("dctcp+tlt", cell, 13);
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
    assert_budget("lossy dctcp+tlt", (allocs, a.data_pkts_sent), 64);
}

#[test]
fn hpcc_run_loop_stays_within_its_allocation_budget() {
    let cell = run_cell(SimConfig::roce_family(TransportKind::Hpcc));
    assert_budget("hpcc", cell, 210);
}

/// `requests` serving requests (untruncated, seed 1) on the k-ary
/// fat-tree, shaped as the repo benchmark's `serve_k8` / `serve_k24` cells:
/// a quarter of the requests fan out to 32 servers, answers are
/// cache-follower sized and chained on their query's completion. Returns
/// the configuration and what generates the flows.
fn serve_cell(
    k: usize,
    kind: TransportKind,
    requests: usize,
) -> (SimConfig, impl FnOnce() -> Vec<FlowSpec>) {
    let latency = SimTime::from_us(if kind.is_roce() { 1 } else { 10 });
    let cfg = if kind.is_roce() {
        SimConfig::roce_family(kind)
    } else {
        SimConfig::tcp_family(kind)
    };
    let cfg = cfg
        .with_topology(TopologySpec::paper_fat_tree(k, latency))
        .with_seed(1);
    let flows = move || {
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
        serve::generate(&params, 1).flows
    };
    (cfg, flows)
}

/// Peak live heap of generating the flows, `Engine::new` and `run` on
/// `cfg`, every flow of which must complete. The flows are made inside the
/// window: every block the engine frees was allocated in it, so a freed
/// block cannot lower the peak below what the cell really held, and a spec
/// list the engine keeps counts once.
fn peak_live(cfg: SimConfig, flows: impl FnOnce() -> Vec<FlowSpec>) -> u64 {
    let (peak, res) = peak_live_in(|| Engine::new(cfg, flows()).run());
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
/// flows) is bounded at its measured 4,804,348 bytes plus 10 % (11.56 MB
/// when every transport lived from `Engine::new` to the end of the run,
/// 8.82 MB while every flow's timer slots did, 6.75 MB while hosts had
/// switch slots, flows held their paths and the results were built beside
/// the fabric, 4.99 MB while every packet slot was a whole `Packet` and a
/// lossy flow kept a ring of its losses — each 393,216 bytes low, see the
/// header — and 5,045,932 bytes counted in full while every port kept a
/// queue buffer and every flow record a copy of its spec).
#[test]
fn serve_cell_peak_live_heap_stays_within_its_budget() {
    let (cfg, flows) = serve_cell(8, TransportKind::Dctcp, 384);
    assert_heap("k=8 serve cell", peak_live(cfg, flows), 5_285_000);
}

/// An incast starts every flow at once, so its heap is the running state
/// of the flows that overlap: 1,000 synchronized 32 kB DCTCP flows from
/// eight servers into one (the repo benchmark's `incast_burst` shape at a
/// third of its size, seed 1) peak at a measured 3,126,802 bytes, bounded
/// at that plus 1.4 % (4,183,654 while every flow's record held its timer
/// slots and loss ring from `Engine::new` on, 4,080,138 while each flow
/// held its paths, 4,012,146 while every packet slot was a whole `Packet`
/// and a lossy flow kept a ring of its losses — each 48,000 bytes low, see
/// the header — and 3,184,978 counted in full while every port kept a
/// queue buffer and every flow record a copy of its spec).
#[test]
fn incast_cell_peak_live_heap_stays_within_its_budget() {
    let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
        .with_topology(dcsim::small_single_switch(9))
        .with_seed(1);
    let flows = || workload::incast_burst(1_000, 8, 32_000, 1);
    assert_heap("incast cell", peak_live(cfg, flows), 3_171_000);
}

/// The header's 512-request rows (release, a few seconds), each bounded at
/// its measured value plus 10 %: `cargo test --release --test alloc_budget
/// -- --include-ignored --nocapture`.
#[test]
#[ignore]
fn serve_cells_peak_live_heap() {
    for (k, kind, budget) in [
        (8, TransportKind::Dctcp, 6_418_000),
        (24, TransportKind::Dctcp, 11_348_000),
        (24, TransportKind::Hpcc, 10_941_000),
    ] {
        let (cfg, flows) = serve_cell(k, kind, 512);
        let label = format!("k={k} {} serve cell", kind.name());
        assert_heap(&label, peak_live(cfg, flows), budget);
    }
}

/// The repo benchmark's `incast_burst` TCP cell at full size (seed 1):
/// 3,000 synchronized 32 kB TCP flows from eight servers into one, the
/// lossy regime where every running flow holds a loss summary and tens of
/// thousands of frames are in flight. Measured at 8,490,458 bytes
/// (10,624,282 while every packet slot was a whole `Packet` and a lossy
/// flow kept a ring of its losses, 144,000 bytes low; 8,646,938 counted in
/// full while every port kept a queue buffer and every flow record a copy
/// of its spec), bounded at that plus 1.4 %, like the
/// tier-1 incast row: `cargo test --release --test alloc_budget --
/// --include-ignored --nocapture`.
#[test]
#[ignore]
fn tcp_incast_cell_peak_live_heap() {
    let cfg = SimConfig::tcp_family(TransportKind::Tcp)
        .with_topology(dcsim::small_single_switch(9))
        .with_seed(1);
    let flows = || workload::incast_burst(3_000, 8, 32_000, 1);
    assert_heap(
        "3,000-flow TCP incast cell",
        peak_live(cfg, flows),
        8_610_000,
    );
}

/// Attaching the latency ledger allocates its per-flow side table and the
/// packet slab's journey table, and the run then allocates nothing per
/// data packet for it: the only extra allocations are the end-of-run
/// records and any stall intervals a flow keeps (none on this lossless
/// cell), and the journey table's growth past the slab's first 1,024 slots
/// (none here either).
#[test]
fn set_ledger_allocates_a_constant_not_per_packet() {
    let dctcp = || SimConfig::tcp_family(TransportKind::Dctcp);
    let (plain, pkts) = run_cell(dctcp());
    let mut eng = cell(dctcp());
    let (attach, ()) = allocs_in(|| eng.set_ledger());
    assert!(attach <= 2, "set_ledger made {attach} allocations");
    let (observed, res) = run_counted(eng);
    assert_eq!(res.agg.data_pkts_sent, pkts, "observing changes nothing");
    assert_eq!(res.ledger.map(|l| l.len()), Some(8), "one record per flow");
    let extra = observed - plain;
    println!("ledger: {attach} to attach, {extra} more in Engine::run for {pkts} data packets");
    assert!(
        extra <= 1,
        "the ledger added {extra} allocations to the run"
    );
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

/// The JSONL sink encodes every event straight into its output buffer:
/// recording allocates nothing per event, only when the buffer grows
/// (amortized, so a handful of times over 3,003 events).
#[test]
fn jsonl_sinks_allocate_nothing_per_event() {
    use telemetry::{BufferSink, DropWhy, TraceEvent, TraceSink};
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
    let mut buffered = BufferSink::new();
    // The widest lines first.
    for ev in events(u32::MAX) {
        buffered.record(SimTime::from_ns(u64::MAX), &ev);
    }
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
