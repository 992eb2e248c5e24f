//! A deterministic mutation corpus against every JSON reader in the
//! workspace: the four `tlt-*` parsers, the JSONL line decoder, the trace
//! inspector and the generic reader (`telemetry::json::parse`), each with
//! the render `trace_inspect` prints. The contract is the same for each:
//! `Ok` or `Err`, never a panic, and no single allocation sized by a
//! number in the input.
//!
//! Sources: one export of each schema from a small serving run (metrics
//! and serve straight from the engine and `serve::account`; profile and
//! spans built from the same run's registry and flows), a slice of that
//! run's JSONL trace, and `ci/metrics_schema.json`. Mutations: truncation
//! at every char boundary, ASCII substitutions at drawn positions,
//! duplicated keys, numbers at and past `u64::MAX`, and 10k-deep nesting.
//! Drawn cases are few under `debug_assertions` (tier-1) and many in an
//! optimised build (CI's "Parser corpus, long slice (release)").

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dcsim::{small_single_switch, Engine, SimConfig};
use eventsim::{SimRng, SimTime};
use telemetry::inspect::inspect_reader;
use telemetry::json::{self, Cursor};
use telemetry::{
    BufferSink, FlowSpan, NodeCounts, Phase, PhaseTimes, Profile, Registry, RequestSpan,
    ServeReport, SpanReport, StallSpan, TraceEvent, Tracer,
};
use transport::TransportKind;

/// Drawn cases per source and mutation kind.
const CASES: usize = if cfg!(debug_assertions) { 24 } else { 4000 };

thread_local! {
    /// The largest single allocation this thread has asked for since the
    /// last reset (no destructor, so the allocator may touch it any time).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

/// Notes every allocation's size; `alloc_zeroed` and `realloc` keep their
/// default bodies, which allocate through `alloc`.
struct Tracking;

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Runs `read` and returns the largest single allocation it made; a panic
/// in `read` fails the test, naming the input.
fn largest_alloc(head: &str, read: impl FnOnce() + std::panic::UnwindSafe) -> usize {
    LARGEST.with(|m| m.set(0));
    let ok = std::panic::catch_unwind(read).is_ok();
    assert!(ok, "a reader panicked on {head:?}");
    LARGEST.with(Cell::get)
}

/// Hands `text` to every reader; fails the test if one panics or makes a
/// single allocation out of proportion to the input.
fn feed(text: &str) {
    let head: String = text.chars().take(160).collect();
    let parsers = largest_alloc(&head, || {
        let _ = Registry::parse(text).map(|r| r.render());
        let _ = Profile::parse(text).map(|r| r.render());
        let _ = ServeReport::parse(text).map(|r| r.render());
        let _ = SpanReport::parse(text).map(|r| r.render());
        let _ = json::parse(text);
        text.lines().for_each(|l| drop(TraceEvent::from_jsonl(l)));
    });
    let inspect = largest_alloc(&head, || {
        inspect_reader(text.as_bytes()).expect("in memory").render();
    });
    let bound = 64 * text.len() + (64 << 10);
    assert!(parsers <= bound, "{parsers} bytes at once for {head:?}");
    // The inspector's `CountingSink` counts node ids below 2^16 in a dense
    // table (larger ones in an ordered map): one id in the input can size
    // that table up to its fixed ceiling (twice that while `Vec` growth
    // doubles it), and no further.
    let dense = 2 * (1 << 16) * std::mem::size_of::<NodeCounts>();
    assert!(inspect <= bound + dense, "{inspect} bytes for {head:?}");
}

const LABEL: &str = "dctcp \"corpus\" \\ µs";

/// The six sources: the four exports and a JSONL trace slice from one
/// small serving run whose labels hold `"`, `\` and a non-ASCII char, then
/// the metrics schema.
fn sources() -> Vec<String> {
    let mut params = serve::ServeParams::small(4);
    (params.requests, params.fanout) = (6, 2);
    let wl = serve::generate(&params, 3);
    let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(4));
    cfg.max_time = SimTime::from_ms(20);
    let mut eng = Engine::new(cfg, wl.flows.clone());
    eng.set_metrics();
    let (tracer, sink) = Tracer::new(BufferSink::new());
    let label = LABEL.to_string();
    tracer.emit(SimTime::ZERO, || TraceEvent::RunStart { label, seed: 3 });
    eng.set_tracer(tracer.clone());
    let res = eng.run();
    let agg = &res.agg;
    tracer.emit(agg.duration, || TraceEvent::RunEnd {
        drops_color: agg.drops_color,
        drops_dt: agg.drops_dt,
        drops_overflow: agg.drops_overflow,
        wire_drops: agg.wire_drops,
        down_drops: agg.down_drops,
        pause_frames: agg.pause_frames,
        timeouts: agg.timeouts,
        rto_causes: agg.rto_causes,
    });
    let trace = String::from_utf8(sink.borrow_mut().take_bytes()).expect("UTF-8");
    let lines: Vec<&str> = trace.lines().collect();
    let slice = [&lines[..24], &lines[lines.len() - 1..]]
        .concat()
        .join("\n");

    let mut reg = res.metrics.clone().expect("metrics enabled");
    reg.set_meta("label", LABEL);
    let mut profile = Profile {
        reg: reg.clone(),
        ..Profile::new()
    };
    let mut spans = SpanReport::new();
    spans.reg.set_meta("label", LABEL);
    for f in &res.flows {
        let (Some(end), Some(fct)) = (f.end, f.fct()) else {
            continue;
        };
        profile.series_mut("flow_ends").record(end, 1);
        let (start_ns, end_ns, fct) = (f.start.as_ns(), end.as_ns(), fct.as_ns());
        let mut phases = PhaseTimes::default();
        phases.add(Phase::Propagation, fct / 4);
        phases.add(Phase::RtoStall, fct - fct / 4);
        spans.record_flow(LABEL, &phases, fct, 0);
        let stalls = vec![StallSpan {
            phase: Phase::RtoStall,
            start_ns,
            dur_ns: fct - fct / 4,
        }];
        spans.push_request(RequestSpan {
            scheme: LABEL.to_string(),
            seed: 3,
            req: u64::from(f.id),
            start_ns,
            latency_ns: fct,
            dominant: phases.dominant(),
            flows: vec![FlowSpan {
                id: u64::from(f.id),
                role: LABEL.to_string(),
                start_ns,
                end_ns,
                phases,
                stalls,
            }],
        });
    }
    let all = vec![
        reg.to_json(),
        profile.to_json(),
        serve::account(LABEL, &wl, &res, params.slo).to_json(),
        spans.to_json(),
        slice,
        include_str!("../ci/metrics_schema.json").to_string(),
    ];
    assert!(Registry::parse(&all[0]).is_ok() && Profile::parse(&all[1]).is_ok());
    assert!(ServeReport::parse(&all[2]).is_ok() && SpanReport::parse(&all[3]).is_ok());
    let report = inspect_reader(all[4].as_bytes()).expect("in memory");
    assert!(report.malformed == 0 && report.runs[0].label == LABEL);
    assert!(json::parse(&all[5]).is_ok());
    all
}

/// A drawn mutant of `src`: `kind` 0 overwrites one to three chars with
/// drawn ASCII, 1 writes a drawn key a second time with a drawn value, 2
/// swaps a number for one at or past `u64::MAX`, 3 for 10k-deep nesting.
fn mutant(src: &str, kind: usize, rng: &mut SimRng) -> String {
    const ASCII: &[u8] = b"{}[]:,\"\\ \n\t0123456789-+.eEtrufalsn/xu";
    const VALUES: [&str; 6] = ["0", "\"x\"", "true", "{}", "[]", "18446744073709551615"];
    const NUMBERS: [&str; 3] = [
        "18446744073709551615",
        "18446744073709551616",
        "123456789012345678901234567890",
    ];
    let mut text = src.to_string();
    let b = src.as_bytes();
    let at = rng.gen_range_usize(0..b.len());
    match kind {
        0 => {
            for _ in 0..rng.gen_range_usize(1..4) {
                let i = rng.gen_range_usize(0..text.len());
                if let Some(c) = text.get(i..).and_then(|t| t.chars().next()) {
                    let with = ASCII[rng.gen_range_usize(0..ASCII.len())] as char;
                    text.replace_range(i..i + c.len_utf8(), with.encode_utf8(&mut [0; 4]));
                }
            }
        }
        1 => {
            // A key: a string right after `{` or `,`, whitespace aside.
            let after_open = |i: usize| {
                let prev = b[..i].iter().rev().find(|c| !c.is_ascii_whitespace());
                b[i] == b'"' && matches!(prev, Some(b'{' | b','))
            };
            if let Some(k) = (at..b.len()).find(|&i| after_open(i)) {
                let key = Cursor::new(&src[k..]).string().expect("a source key");
                let mut dup = String::new();
                json::push_str(&mut dup, &key);
                dup.push(':');
                dup.push_str(VALUES[rng.gen_range_usize(0..VALUES.len())]);
                dup.push(',');
                text.insert_str(k, &dup);
            }
        }
        _ => {
            if let Some(a) = (at..b.len()).find(|&i| b[i].is_ascii_digit()) {
                let end = (a..b.len()).find(|&i| !b[i].is_ascii_digit());
                let with = match kind {
                    2 => NUMBERS[rng.gen_range_usize(0..NUMBERS.len())].to_string(),
                    _ => ["[", "{\"a\":"][rng.gen_range_usize(0..2)].repeat(10_000),
                };
                text.replace_range(a..end.unwrap_or(b.len()), &with);
            }
        }
    }
    text
}

#[test]
fn every_truncation_of_every_source_is_ok_or_err() {
    for src in sources() {
        for cut in (0..=src.len()).filter(|&cut| src.is_char_boundary(cut)) {
            feed(&src[..cut]);
        }
    }
}

#[test]
fn drawn_mutants_of_every_source_are_ok_or_err() {
    let mut rng = SimRng::seed_from(0xC0_2B05);
    for src in sources() {
        for kind in 0..4 {
            let cases = if kind == 3 { CASES.min(16) } else { CASES };
            for _ in 0..cases {
                feed(&mutant(&src, kind, &mut rng));
            }
        }
    }
}

#[test]
fn deep_nesting_is_a_positioned_error() {
    for open in ["[", "{\"a\":"] {
        let deep = open.repeat(10_000);
        feed(&deep);
        assert!(json::parse(&deep).unwrap_err().contains("at byte"));
    }
}
