//! Micro-benchmarks of the hot paths: event queue, switch MMU, SACK
//! machinery, and a small end-to-end engine run.
//!
//! Hand-rolled on `std::time::Instant` so the workspace builds offline
//! (no criterion), and gated behind the non-default `microbench` feature so
//! the tier-1 cycle never compiles bench-only code:
//!
//! ```text
//! cargo bench -p bench --features microbench
//! ```

fn main() {
    #[cfg(feature = "microbench")]
    micro::run();
    #[cfg(not(feature = "microbench"))]
    eprintln!("micro-benchmarks are feature-gated; rerun with --features microbench");
}

#[cfg(feature = "microbench")]
mod micro {
    use std::hint::black_box;
    use std::time::Instant;

    use dcsim::{small_single_switch, Engine, FlowSpec, SimConfig};
    use eventsim::{EventQueue, SimTime};
    use netsim::packet::{FlowId, Packet, PacketSlab};
    use netsim::switch::{Switch, SwitchConfig};
    use netsim::topology::PortId;
    use transport::buffer::{RecvBuffer, Scoreboard};
    use transport::TransportKind;

    /// Times `f` over enough iterations to fill ~0.5 s after a warmup and
    /// prints mean per-iteration latency.
    fn bench(name: &str, mut f: impl FnMut() -> u64) {
        // Warmup + calibration.
        let t0 = Instant::now();
        let mut sink = 0u64;
        let mut calib = 0u32;
        while t0.elapsed().as_millis() < 100 {
            sink = sink.wrapping_add(f());
            calib += 1;
        }
        let iters = (calib * 5).max(10);
        let t1 = Instant::now();
        for _ in 0..iters {
            sink = sink.wrapping_add(f());
        }
        let per = t1.elapsed().as_secs_f64() / f64::from(iters);
        black_box(sink);
        println!("{name:<40} {:>12.3} µs/iter  ({iters} iters)", per * 1e6);
    }

    pub fn run() {
        // 10k keys over 100 µs: about a third lie a wheel span (65.5 µs) or
        // more ahead when pushed and go to the far heap, so this times both
        // tiers; the capacity reserves arena nodes for the rest.
        bench("event_queue/schedule_pop_10k", || {
            let mut q = EventQueue::with_capacity(10_000);
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_ns((i * 7919) % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum += e;
            }
            sum
        });

        bench("switch/enqueue_dequeue_4k", || {
            let mut cfg = SwitchConfig::trident2(12);
            cfg.color_threshold = Some(400_000);
            let mut sw = Switch::new(cfg, 1);
            let mut slab = PacketSlab::new();
            for i in 0..4_000u64 {
                let mut p = Packet::data(FlowId(0), i * 1000, 1000);
                p.colorize(true);
                let p = slab.insert(p);
                sw.enqueue(
                    p,
                    &mut slab,
                    PortId(0),
                    PortId((i % 12) as u32),
                    SimTime::ZERO,
                );
                if i % 2 == 0 {
                    let (r, _) = sw.dequeue(&mut slab, PortId((i % 12) as u32), SimTime::ZERO);
                    if let Some(r) = r {
                        slab.take(r);
                    }
                }
            }
            sw.total_bytes()
        });

        bench("sack/reassembly_1k_segments", || {
            let mut rb = RecvBuffer::new(1_000_000);
            // Worst-ish case: alternating halves create many ranges.
            for i in (0..1000u64).step_by(2) {
                rb.insert(i * 1000, (i + 1) * 1000);
            }
            for i in (1..1000u64).step_by(2) {
                rb.insert(i * 1000, (i + 1) * 1000);
            }
            u64::from(rb.is_complete())
        });

        bench("sack/scoreboard_holes", || {
            let mut sb = Scoreboard::new();
            for i in 0..500u64 {
                sb.add_block(netsim::packet::SackBlock {
                    start: i * 2000 + 1000,
                    end: i * 2000 + 2000,
                });
            }
            let mut holes = 0;
            let mut from = 0;
            while let Some((hs, he)) = sb.first_hole(from) {
                holes += 1;
                from = he.max(hs + 1);
            }
            holes
        });

        bench("engine/8way_incast_dctcp", || {
            let cfg =
                SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(9));
            let flows: Vec<FlowSpec> = (1..9)
                .map(|s| FlowSpec::new(s, 0, 32_000, SimTime::ZERO, true))
                .collect();
            let res = Engine::new(cfg, flows).run();
            res.agg.data_pkts_sent
        });

        bench("engine/8way_incast_dctcp_tlt", || {
            let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
                .with_topology(small_single_switch(9))
                .with_tlt();
            let flows: Vec<FlowSpec> = (1..9)
                .map(|s| FlowSpec::new(s, 0, 32_000, SimTime::ZERO, true))
                .collect();
            let res = Engine::new(cfg, flows).run();
            res.agg.data_pkts_sent
        });
    }
}
