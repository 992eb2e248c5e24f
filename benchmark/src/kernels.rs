//! Layer kernels (*K* metrics): host nanoseconds per operation of one
//! layer's public API driven in a loop, with nothing else running. They are
//! workload-independent; the traced run multiplies them by the exact event
//! counts of a workload to get each layer's floor share of `Engine::run`.
//!
//! Every kernel calibrates itself to batches of ~60 ms, times five batches
//! (≥ 0.3 s in all), reports the median batch and `black_box`es a value
//! derived from every operation so none of it can be optimised away.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use eventsim::{EventQueue, SimRng, SimTime};
use netsim::packet::{FlowId, Packet, PacketKind, PacketSlab, SackBlock, TltMark};
use netsim::switch::{Switch, SwitchConfig};
use netsim::topology::{PortId, Topology, TopologySpec};
use netstats::Samples;
use telemetry::{CountingSink, Registry, TraceEvent, Tracer};
use tlt_core::{WindowTltConfig, WindowTltSender};
use transport::buffer::{RecvBuffer, Scoreboard};
use transport::cc::Dctcp;
use transport::roce::{RoceCfg, RoceReceiver, RoceRecovery, RoceSender};
use transport::tcp::{TcpReceiver, WindowCfg, WindowSender};
use transport::{Action, Ctx, FlowReceiver, FlowSender, TimerKind};
use workload::FlowSizeCdf;

use crate::stats::median;

const BATCH: Duration = Duration::from_millis(60);
const BATCHES: usize = 5;

/// Median host ns per operation. `call` performs some operations and
/// returns `(how many, a value that depends on them)`.
fn time_ns_per_op(mut call: impl FnMut() -> (u64, u64)) -> f64 {
    let mut sink = 0u64;
    let mut calls = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < BATCH {
        sink ^= call().1;
        calls += 1;
    }
    let mut per_op = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut ops = 0u64;
        let t = Instant::now();
        for _ in 0..calls {
            let (n, v) = call();
            ops += n;
            sink ^= v;
        }
        per_op.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    black_box(sink);
    median(&per_op)
}

/// Runs every kernel; returns `(metric name, ns per operation)`.
pub fn run_all() -> Vec<(&'static str, f64)> {
    vec![
        ("eventsim.queue.hold_4k_ns", queue_hold(4 << 10)),
        ("eventsim.queue.hold_128k_ns", queue_hold(128 << 10)),
        ("netsim.switch.enq_deq_ns", switch_enq_deq()),
        ("netsim.switch.reject_ns", switch_reject()),
        ("netsim.packet.slab_ns", slab()),
        ("netsim.topology.pin_ns", topology_pin()),
        ("transport.tcp.loopback_ns", tcp_loopback(None)),
        ("transport.tcp.lossy_ns", tcp_loopback(Some(50))),
        ("transport.roce.loopback_ns", roce_loopback()),
        ("transport.buffer.sack_ns", sack()),
        ("tlt-core.window.mark_ns", tlt_mark()),
        ("workload.cdf.sample_ns", cdf_sample()),
        ("netstats.percentile_ns", percentile()),
        ("telemetry.tracer.emit_ns", tracer_emit()),
        ("telemetry.registry.observe_ns", registry_observe()),
    ]
}

/// The classic hold model: at a steady depth, pop the earliest event and
/// schedule one a random increment later.
fn queue_hold(depth: usize) -> f64 {
    let mut rng = SimRng::seed_from(depth as u64);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
    for i in 0..depth as u64 {
        q.schedule(SimTime::from_ns(rng.gen_range_u64(0..100_000)), i);
    }
    time_ns_per_op(|| {
        let mut sum = 0u64;
        for _ in 0..4096 {
            let (t, e) = q.pop().expect("depth is steady");
            sum = sum.wrapping_add(e);
            q.schedule(t + SimTime::from_ns(1 + rng.gen_range_u64(0..100_000)), e);
        }
        (4096, sum)
    })
}

fn green_data(i: u64) -> Packet {
    let mut p = Packet::data(FlowId((i % 64) as u32), i * 1000, 1000);
    p.colorize(true);
    p
}

fn switch12() -> Switch {
    let mut cfg = SwitchConfig::trident2(12);
    cfg.color_threshold = Some(400_000);
    Switch::new(cfg, 1)
}

/// Admit one frame per port through a `PacketSlab`, then dequeue them all.
fn switch_enq_deq() -> f64 {
    let mut sw = switch12();
    let mut slab = PacketSlab::with_capacity(64);
    let mut i = 0u64;
    time_ns_per_op(|| {
        let mut bytes = 0u64;
        for port in 0..12u32 {
            i += 1;
            let r = slab.insert(green_data(i));
            let out = sw.enqueue(r, &mut slab, PortId(0), PortId(port), SimTime::ZERO);
            bytes += u64::from(out.enqueued);
        }
        for port in 0..12u32 {
            if let (Some(r), _) = sw.dequeue(&mut slab, PortId(port), SimTime::ZERO) {
                bytes += u64::from(slab.take(r).wire_size());
            }
        }
        (12, bytes)
    })
}

/// Offer frames to an egress queue that sits at its dynamic threshold: the
/// reject path an incast spends its time in.
fn switch_reject() -> f64 {
    let mut sw = switch12();
    let mut slab = PacketSlab::with_capacity(8192);
    let mut i = 0u64;
    loop {
        i += 1;
        let r = slab.insert(green_data(i));
        if !sw
            .enqueue(r, &mut slab, PortId(0), PortId(1), SimTime::ZERO)
            .enqueued
        {
            break;
        }
    }
    time_ns_per_op(|| {
        let mut rejected = 0u64;
        for _ in 0..256 {
            i += 1;
            let r = slab.insert(green_data(i));
            let out = sw.enqueue(r, &mut slab, PortId(0), PortId(1), SimTime::ZERO);
            rejected += u64::from(!out.enqueued);
        }
        assert_eq!(rejected, 256, "the queue stays at its threshold");
        (256, rejected ^ i)
    })
}

/// `PacketSlab` insert + take with a few hundred frames resident.
fn slab() -> f64 {
    let mut slab = PacketSlab::with_capacity(1024);
    let mut live: VecDeque<_> = (0..512).map(|i| slab.insert(green_data(i))).collect();
    let mut i = 0u64;
    time_ns_per_op(|| {
        let mut sum = 0u64;
        for _ in 0..1024 {
            i += 1;
            live.push_back(slab.insert(green_data(i)));
            let old = live.pop_front().expect("resident frames");
            sum = sum.wrapping_add(slab.take(old).seq);
        }
        (1024, sum)
    })
}

/// `pin_paths` between random host pairs of the k=24 fat-tree.
fn topology_pin() -> f64 {
    let topo = TopologySpec::paper_fat_tree(24, SimTime::from_us(10)).build();
    let hosts = topo.hosts().to_vec();
    let mut rng = SimRng::seed_from(24);
    time_ns_per_op(|| {
        let mut hops = 0u64;
        for _ in 0..256 {
            let src = hosts[rng.gen_range_usize(0..hosts.len())];
            let dst = hosts[rng.gen_range_usize(0..hosts.len())];
            if src == dst {
                continue;
            }
            let hash = Topology::ecmp_hash(src, dst, rng.gen_u64());
            let (fwd, rev) = topo.pin_paths(src, dst, hash);
            hops += (fwd.len() + rev.len()) as u64;
        }
        (256, hops)
    })
}

/// A sender and a receiver wired back to back: what `dcsim` does for a
/// flow, minus the network. Frames arrive one fixed delay after they are
/// sent; timers fire in time order with them; every `drop_every`-th data
/// frame is lost. Returns the data packets the sender transmitted.
fn loopback(tx: &mut dyn FlowSender, rx: &mut dyn FlowReceiver, drop_every: Option<u64>) -> u64 {
    const DELAY: SimTime = SimTime::from_ns(2_000);
    let mut wire: VecDeque<(SimTime, Packet)> = VecDeque::new();
    let mut timers: [Option<SimTime>; 5] = [None; 5];
    let slot = |k: TimerKind| match k {
        TimerKind::Rto => 0,
        TimerKind::Tlp => 1,
        TimerKind::Pace => 2,
        TimerKind::DcqcnAlpha => 3,
        TimerKind::DcqcnIncrease => 4,
    };
    const KINDS: [TimerKind; 5] = [
        TimerKind::Rto,
        TimerKind::Tlp,
        TimerKind::Pace,
        TimerKind::DcqcnAlpha,
        TimerKind::DcqcnIncrease,
    ];
    let mut actions: Vec<Action> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut data_seen = 0u64;
    tx.start(&mut Ctx {
        now,
        actions: &mut actions,
    });
    loop {
        for a in actions.drain(..) {
            match a {
                Action::Send(pkt) => {
                    if pkt.kind == PacketKind::Data {
                        data_seen += 1;
                        if drop_every.is_some_and(|n| data_seen.is_multiple_of(n)) {
                            continue;
                        }
                    }
                    // One delay for every frame keeps the wire FIFO.
                    wire.push_back((now + DELAY, pkt));
                }
                Action::SetTimer { kind, at } => timers[slot(kind)] = Some(at.max(now)),
                Action::CancelTimer { kind } => timers[slot(kind)] = None,
            }
        }
        if tx.is_done() && rx.is_complete() {
            break;
        }
        let next_timer = (0..5).filter_map(|s| timers[s].map(|at| (at, s))).min();
        let next_pkt = wire.front().map(|(at, _)| *at);
        match (next_pkt, next_timer) {
            (Some(p), t) if t.is_none_or(|(at, _)| p <= at) => {
                let (at, pkt) = wire.pop_front().expect("peeked");
                now = at;
                let mut ctx = Ctx {
                    now,
                    actions: &mut actions,
                };
                if pkt.kind == PacketKind::Data {
                    rx.on_packet(&pkt, &mut ctx);
                } else {
                    tx.on_packet(&pkt, &mut ctx);
                }
            }
            (_, Some((at, s))) => {
                timers[s] = None;
                now = at;
                tx.on_timer(
                    KINDS[s],
                    &mut Ctx {
                        now,
                        actions: &mut actions,
                    },
                );
            }
            (None, None) => panic!("loopback flow stalled with nothing pending"),
            (Some(_), None) => unreachable!("covered by the first arm"),
        }
    }
    tx.stats().data_pkts_sent
}

/// One 1 MB DCTCP flow with TLT per call, per data packet.
fn tcp_loopback(drop_every: Option<u64>) -> f64 {
    const BYTES: u64 = 1_000_000;
    time_ns_per_op(|| {
        let mut cfg = WindowCfg::new(FlowId(0), BYTES);
        cfg.ecn_capable = true;
        cfg.tlt = transport::TltMode::Window(WindowTltConfig::default());
        let cc = Dctcp::new(cfg.mss, cfg.init_cwnd_pkts);
        let mut tx = WindowSender::new(cfg, cc);
        let mut rx = TcpReceiver::new(FlowId(0), BYTES, true, 8);
        let pkts = loopback(&mut tx, &mut rx, drop_every);
        (pkts, pkts ^ tx.stats().fast_retx)
    })
}

/// One 1 MB DCQCN+SACK flow per call, per data packet.
fn roce_loopback() -> f64 {
    const BYTES: u64 = 1_000_000;
    time_ns_per_op(|| {
        let cfg = RoceCfg::new(
            FlowId(0),
            BYTES,
            RoceRecovery::Selective { window_cap: None },
        );
        let mut tx = RoceSender::new(cfg);
        let mut rx = RoceReceiver::new(FlowId(0), BYTES, true, false);
        let pkts = loopback(&mut tx, &mut rx, None);
        (pkts, pkts)
    })
}

/// SACK machinery, per range operation: out-of-order reassembly of 1000
/// segments, then a 500-block scoreboard and a walk over its holes.
fn sack() -> f64 {
    time_ns_per_op(|| {
        let mut rb = RecvBuffer::new(1_000_000);
        for i in (0..1000u64).step_by(2).chain((1..1000u64).step_by(2)) {
            rb.insert(i * 1000, (i + 1) * 1000);
        }
        let mut sb = Scoreboard::new();
        for i in 0..500u64 {
            sb.add_block(SackBlock {
                start: i * 2000 + 1000,
                end: i * 2000 + 2000,
            });
        }
        let (mut holes, mut from) = (0u64, 0u64);
        while let Some((hs, he)) = sb.first_hole(from) {
            holes += 1;
            from = he.max(hs + 1);
        }
        (1000 + 500 + holes, holes + u64::from(rb.is_complete()))
    })
}

/// Window-TLT marking: one `mark_data` + one `on_ack` per operation, with an
/// echo every eighth ACK so both branches run.
fn tlt_mark() -> f64 {
    let mut tlt = WindowTltSender::new(WindowTltConfig::default());
    let mut i = 0u64;
    time_ns_per_op(|| {
        let mut important = 0u64;
        for _ in 0..4096 {
            i += 1;
            important += u64::from(black_box(tlt.mark_data(!i.is_multiple_of(3))).is_important());
            let mark = if i.is_multiple_of(8) {
                TltMark::ImportantEcho
            } else {
                TltMark::None
            };
            black_box(tlt.on_ack(black_box(mark), i * 1440, i * 1440 - 1));
        }
        (4096, important)
    })
}

fn cdf_sample() -> f64 {
    let cdf = FlowSizeCdf::web_search();
    let mut rng = SimRng::seed_from(7);
    time_ns_per_op(|| {
        let mut sum = 0u64;
        for _ in 0..4096 {
            sum = sum.wrapping_add(cdf.sample(&mut rng));
        }
        (4096, sum)
    })
}

/// p99 of 100 k fresh samples (the sort dominates), per sample.
fn percentile() -> f64 {
    const N: u64 = 100_000;
    let mut rng = SimRng::seed_from(99);
    let values: Vec<f64> = (0..N).map(|_| rng.gen_unit_f64()).collect();
    time_ns_per_op(|| {
        let p99 = Samples::from_values(values.clone())
            .percentile(99.0)
            .expect("non-empty");
        (N, p99.to_bits())
    })
}

fn tracer_emit() -> f64 {
    let (tracer, sink) = Tracer::new(CountingSink::default());
    let mut i = 0u64;
    let ns = time_ns_per_op(|| {
        for _ in 0..4096 {
            i += 1;
            tracer.emit(SimTime::from_ns(i), || TraceEvent::Enqueue {
                node: (i % 10) as u32,
                port: (i % 12) as u32,
                flow: (i % 1000) as u32,
                seq: i * 1440,
                qlen: i % 400_000,
            });
        }
        (4096, i)
    });
    black_box(sink.borrow().events);
    ns
}

/// `Registry::observe` into one of 120 per-port histograms, as the engine's
/// metrics observer does on every enqueue.
fn registry_observe() -> f64 {
    let names: Vec<String> = (0..120)
        .map(|i| format!("port_queue_bytes/n{}/p{}", i / 12, i % 12))
        .collect();
    let mut reg = Registry::new();
    let mut i = 0u64;
    let ns = time_ns_per_op(|| {
        for _ in 0..4096 {
            i += 1;
            reg.observe(&names[(i % 120) as usize], i % 400_000);
        }
        (4096, i)
    });
    black_box(reg.hist(&names[0]).map(|h| h.count));
    ns
}
