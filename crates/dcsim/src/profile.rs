//! The event-level engine profiler (feature `profile`).
//!
//! The engine calls [`EngineProf`]'s hooks unconditionally; the `profile`
//! cargo feature is named only in this file, where it picks the type: the
//! profiler below, collected on every run so a profiling build of any binary
//! needs no flag beyond `--profile-out`, or a zero-sized twin whose hooks are
//! empty inline bodies and whose `seal` returns `None`. (A twin, not one
//! body per hook behind a constant as in `ledger.rs`: the profiler owns
//! histograms and series, and a struct that owns heap state leaves its drop
//! glue in the default binary even when nothing ever fills it.)
//!
//! The profiler answers the question ROADMAP items 1–2 keep asking: where
//! do the engine's millions of events per second actually go? It tracks,
//! per [`EvKind`]:
//!
//! * **scheduled / executed / cancelled** counts. Cancellation in this
//!   engine is generation-based (a stale timer pops and no-ops) or
//!   implicit (events still queued — disarmed timers, post-horizon
//!   samples — when the run ends), so both flavors are reported:
//!   `event_stale/*` and `event_unpopped/*`, with the invariant
//!   `exec + stale + unpopped == sched` per kind.
//! * a **fan-out histogram** — how many new events each executed event
//!   scheduled. Wall-clock per event would break the determinism contract
//!   (and simlint D2); fan-out is the deterministic cost proxy that
//!   correlates with handler work, and the wall side lives in
//!   `benchmark/`, where clocks are allowed.
//! * **per-component tallies** (switch / link / transport / timer / fault /
//!   sampler), splitting `Deliver` by where the frame landed — the per-LP
//!   accounting a conservative-PDES shard split will need.
//! * **queue health**: depth histogram after every pop, peak depth,
//!   push/pop churn, and timer-disarm sweep cost.
//! * three sim-time [`TimeSeries`]: events executed per window, packets in
//!   flight, and aggregate switch queue occupancy.
//!
//! Everything is integer and BTreeMap-ordered, so the exported
//! `tlt-profile/v1` JSON is byte-identical across `--jobs N`.

use eventsim::{EventQueue, SimTime};
use telemetry::Profile;
#[cfg(feature = "profile")]
use telemetry::{Hist, TimeSeries, SERIES_BASE_WINDOW_NS};

/// Number of event kinds in [`EvKind::ALL`].
pub const N_KINDS: usize = 10;

/// Discriminant of the engine's event enum, in a fixed export order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvKind {
    /// A flow's start time arrived.
    FlowStart,
    /// A port finished serializing a frame.
    TxDone,
    /// A frame arrived at a node.
    Deliver,
    /// A transport timer fired (live or stale).
    Timer,
    /// A PFC pause/resume reached the upstream port.
    PfcSet,
    /// Periodic queue-depth sampling.
    QueueSample,
    /// Periodic trace sampling.
    TraceSample,
    /// A fault-schedule entry fired.
    Fault,
    /// A pause storm ended.
    StormEnd,
    /// A post-fault ECMP re-pin pass.
    Reroute,
}

impl EvKind {
    /// Every kind, in export order.
    pub const ALL: [EvKind; N_KINDS] = [
        EvKind::FlowStart,
        EvKind::TxDone,
        EvKind::Deliver,
        EvKind::Timer,
        EvKind::PfcSet,
        EvKind::QueueSample,
        EvKind::TraceSample,
        EvKind::Fault,
        EvKind::StormEnd,
        EvKind::Reroute,
    ];

    /// The metric-name suffix (`event_sched/<name>`, …).
    pub fn name(self) -> &'static str {
        match self {
            EvKind::FlowStart => "flow_start",
            EvKind::TxDone => "tx_done",
            EvKind::Deliver => "deliver",
            EvKind::Timer => "timer",
            EvKind::PfcSet => "pfc_set",
            EvKind::QueueSample => "queue_sample",
            EvKind::TraceSample => "trace_sample",
            EvKind::Fault => "fault",
            EvKind::StormEnd => "storm_end",
            EvKind::Reroute => "reroute",
        }
    }

    /// Position in [`EvKind::ALL`].
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Per-run profiler state, owned by the engine (created in `Engine::new`
/// like the strict-invariants ledger, so constructor-time scheduling is
/// counted too).
#[cfg(feature = "profile")]
pub(crate) struct EngineProf {
    sched: [u64; N_KINDS],
    popped: [u64; N_KINDS],
    stale: [u64; N_KINDS],
    unpopped: [u64; N_KINDS],
    fanout: [Hist; N_KINDS],
    depth: Hist,
    deliver_endpoint: u64,
    deliver_transit: u64,
    deliver_destroyed: u64,
    disarm_sweeps: u64,
    disarm_cancels: u64,
    /// `Deliver` events scheduled but not yet popped — frames on the wire.
    inflight: u64,
    /// Next sim-time (ns) at which to sample the gauge series.
    next_window: u64,
    s_events: TimeSeries,
    s_inflight: TimeSeries,
    s_qbytes: TimeSeries,
}

#[cfg(feature = "profile")]
impl EngineProf {
    pub(crate) fn new() -> EngineProf {
        EngineProf {
            sched: [0; N_KINDS],
            popped: [0; N_KINDS],
            stale: [0; N_KINDS],
            unpopped: [0; N_KINDS],
            fanout: std::array::from_fn(|_| Hist::default()),
            depth: Hist::default(),
            deliver_endpoint: 0,
            deliver_transit: 0,
            deliver_destroyed: 0,
            disarm_sweeps: 0,
            disarm_cancels: 0,
            inflight: 0,
            next_window: 0,
            s_events: TimeSeries::new(),
            s_inflight: TimeSeries::new(),
            s_qbytes: TimeSeries::new(),
        }
    }

    /// Called at every schedule site (the engine's `sched` shim).
    #[inline]
    pub(crate) fn on_sched(&mut self, kind: EvKind) {
        self.sched[kind.idx()] += 1;
        if kind == EvKind::Deliver {
            self.inflight += 1;
        }
    }

    /// Called after an event executes: `fanout` is how many events the
    /// handler scheduled, `depth` the queue length left behind.
    #[inline]
    pub(crate) fn on_pop(&mut self, kind: EvKind, t: SimTime, fanout: u64, depth: u64) {
        let i = kind.idx();
        self.popped[i] += 1;
        self.fanout[i].observe(fanout);
        self.depth.observe(depth);
        self.s_events.record(t, 1);
        if kind == EvKind::Deliver {
            self.inflight -= 1;
        }
    }

    /// A timer popped whose generation no longer matches (cancelled).
    #[inline]
    pub(crate) fn note_stale_timer(&mut self) {
        self.stale[EvKind::Timer.idx()] += 1;
    }

    /// An event left in (or popped past the horizon from) the queue at the
    /// end of the run.
    #[inline]
    pub(crate) fn on_unpopped(&mut self, kind: EvKind) {
        self.unpopped[kind.idx()] += 1;
    }

    /// Whether sim-time `t` crossed into an unsampled gauge window.
    #[inline]
    pub(crate) fn window_due(&self, t: SimTime) -> bool {
        t.as_ns() >= self.next_window
    }

    /// Samples the gauge series (in-flight frames, aggregate queue bytes)
    /// for the window containing `t`.
    pub(crate) fn on_window(&mut self, t: SimTime, queue_bytes: u64) {
        self.s_inflight.record(t, self.inflight);
        self.s_qbytes.record(t, queue_bytes);
        self.next_window = (t.as_ns() / SERIES_BASE_WINDOW_NS + 1) * SERIES_BASE_WINDOW_NS;
    }

    /// A `Deliver` handed its frame to a flow endpoint.
    #[inline]
    pub(crate) fn deliver_endpoint(&mut self) {
        self.deliver_endpoint += 1;
    }

    /// A `Deliver` enqueued (or dropped) its frame at a transit switch.
    #[inline]
    pub(crate) fn deliver_transit(&mut self) {
        self.deliver_transit += 1;
    }

    /// A `Deliver` found its wire down or its path rerouted away.
    #[inline]
    pub(crate) fn deliver_destroyed(&mut self) {
        self.deliver_destroyed += 1;
    }

    /// A completed flow's timer slots were swept.
    #[inline]
    pub(crate) fn disarm_sweep(&mut self) {
        self.disarm_sweeps += 1;
    }

    /// That sweep found a slot armed and cancelled it.
    #[inline]
    pub(crate) fn disarm_cancel(&mut self) {
        self.disarm_cancels += 1;
    }

    /// Seals the run: everything still queued (post-horizon samples,
    /// disarmed timers, events orphaned by the all-flows-done break) is
    /// cancelled-by-truncation, drained here through `kind`. The queue's
    /// health counters (`eventsim/profile` only) are snapshotted first so
    /// the accounting drain itself isn't measured.
    pub(crate) fn seal<E>(
        &mut self,
        queue: &mut EventQueue<E>,
        kind: impl Fn(&E) -> EvKind,
    ) -> Option<Profile> {
        let peak = queue.peak_len() as u64;
        let pushes = queue.scheduled_total();
        let pops = queue.pops_total();
        while let Some((_, ev)) = queue.pop() {
            self.on_unpopped(kind(&ev));
        }
        Some(self.finish(peak, pushes, pops))
    }

    /// Builds the [`Profile`]. `peak`/`pushes`/`pops` come from the event
    /// queue's own (feature-gated) health counters; `pops` is snapshotted
    /// before the end-of-run drain that feeds `on_unpopped`. Every name is
    /// always written, even at zero, so the exported schema is identical
    /// across runs and configurations.
    fn finish(&mut self, peak: u64, pushes: u64, pops: u64) -> Profile {
        let mut p = Profile::new();
        let exec = |s: &Self, k: EvKind| s.popped[k.idx()] - s.stale[k.idx()];

        let (mut sched_t, mut exec_t, mut stale_t, mut unpopped_t) = (0u64, 0u64, 0u64, 0u64);
        for k in EvKind::ALL {
            let i = k.idx();
            let r = &mut p.reg;
            r.inc(&format!("event_sched/{}", k.name()), self.sched[i]);
            r.inc(&format!("event_exec/{}", k.name()), exec(self, k));
            r.inc(&format!("event_stale/{}", k.name()), self.stale[i]);
            r.inc(&format!("event_unpopped/{}", k.name()), self.unpopped[i]);
            r.merge_hist(&format!("event_fanout/{}", k.name()), &self.fanout[i]);
            sched_t += self.sched[i];
            exec_t += exec(self, k);
            stale_t += self.stale[i];
            unpopped_t += self.unpopped[i];
        }
        // Every schedule site must route through the profiler, and every
        // scheduled event must end up executed, stale, or unpopped.
        debug_assert_eq!(sched_t, pushes, "a schedule site bypassed the profiler");
        debug_assert_eq!(
            exec_t + stale_t + unpopped_t,
            sched_t,
            "event not accounted"
        );
        debug_assert_eq!(
            self.deliver_endpoint + self.deliver_transit + self.deliver_destroyed,
            self.popped[EvKind::Deliver.idx()],
            "deliver split incomplete"
        );

        let r = &mut p.reg;
        r.inc("events_scheduled_total", sched_t);
        r.inc("events_executed_total", exec_t);
        r.inc("events_cancelled_total", stale_t + unpopped_t);

        // Component attribution: every *popped* event belongs to exactly
        // one component; Deliver splits by where the frame landed.
        let popped = |k: EvKind| self.popped[k.idx()];
        r.inc(
            "component_exec/switch",
            self.deliver_transit + popped(EvKind::PfcSet),
        );
        r.inc(
            "component_exec/link",
            popped(EvKind::TxDone) + self.deliver_destroyed,
        );
        r.inc(
            "component_exec/transport",
            popped(EvKind::FlowStart) + self.deliver_endpoint,
        );
        r.inc("component_exec/timer", popped(EvKind::Timer));
        r.inc(
            "component_exec/fault",
            popped(EvKind::Fault) + popped(EvKind::StormEnd) + popped(EvKind::Reroute),
        );
        r.inc(
            "component_exec/sampler",
            popped(EvKind::QueueSample) + popped(EvKind::TraceSample),
        );
        r.inc("deliver_endpoint", self.deliver_endpoint);
        r.inc("deliver_transit", self.deliver_transit);
        r.inc("deliver_destroyed", self.deliver_destroyed);
        r.inc("timer_disarm_sweeps", self.disarm_sweeps);
        r.inc("timer_disarms", self.disarm_cancels);
        r.inc("queue_pushes", pushes);
        r.inc("queue_pops", pops);
        r.gauge_max("queue_peak_depth", peak);
        r.merge_hist("queue_depth", &self.depth);

        p.series
            .insert("events".to_string(), std::mem::take(&mut self.s_events));
        p.series.insert(
            "inflight_pkts".to_string(),
            std::mem::take(&mut self.s_inflight),
        );
        p.series.insert(
            "queue_bytes".to_string(),
            std::mem::take(&mut self.s_qbytes),
        );
        p
    }
}

/// [`EngineProf`] with the `profile` feature off: zero-sized, every hook an
/// empty inline body, no profile. The engine calls every hook in every
/// build, so one missing or mistyped here fails the default build.
#[cfg(not(feature = "profile"))]
pub(crate) struct EngineProf;

#[cfg(not(feature = "profile"))]
impl EngineProf {
    #[inline]
    pub(crate) fn new() -> EngineProf {
        EngineProf
    }
    #[inline]
    pub(crate) fn on_sched(&mut self, _: EvKind) {}
    #[inline]
    pub(crate) fn on_pop(&mut self, _: EvKind, _: SimTime, _fanout: u64, _depth: u64) {}
    #[inline]
    pub(crate) fn note_stale_timer(&mut self) {}
    #[inline]
    pub(crate) fn on_unpopped(&mut self, _: EvKind) {}
    /// Never: so the caller's queue-bytes sample is not computed either.
    #[inline]
    pub(crate) fn window_due(&self, _: SimTime) -> bool {
        false
    }
    #[inline]
    pub(crate) fn on_window(&mut self, _: SimTime, _queue_bytes: u64) {}
    #[inline]
    pub(crate) fn deliver_endpoint(&mut self) {}
    #[inline]
    pub(crate) fn deliver_transit(&mut self) {}
    #[inline]
    pub(crate) fn deliver_destroyed(&mut self) {}
    #[inline]
    pub(crate) fn disarm_sweep(&mut self) {}
    #[inline]
    pub(crate) fn disarm_cancel(&mut self) {}
    #[inline]
    pub(crate) fn seal<E>(
        &mut self,
        _: &mut EventQueue<E>,
        _: impl Fn(&E) -> EvKind,
    ) -> Option<Profile> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_dense_and_named_uniquely() {
        let mut names = std::collections::BTreeSet::new();
        for (i, k) in EvKind::ALL.iter().enumerate() {
            assert_eq!(k.idx(), i, "ALL order must match discriminants");
            assert!(names.insert(k.name()), "duplicate name {}", k.name());
        }
        assert_eq!(names.len(), N_KINDS);
    }

    #[test]
    #[cfg(feature = "profile")]
    fn finish_reports_invariant_totals() {
        let mut prof = EngineProf::new();
        prof.on_sched(EvKind::FlowStart);
        prof.on_sched(EvKind::Deliver);
        prof.on_sched(EvKind::Timer);
        prof.on_sched(EvKind::Timer);
        prof.on_pop(EvKind::FlowStart, SimTime::from_ns(10), 1, 3);
        prof.on_pop(EvKind::Deliver, SimTime::from_ns(20), 0, 2);
        prof.deliver_endpoint();
        prof.on_pop(EvKind::Timer, SimTime::from_ns(30), 0, 1);
        prof.note_stale_timer();
        prof.on_unpopped(EvKind::Timer);
        let p = prof.finish(4, 4, 3);
        let r = &p.reg;
        assert_eq!(r.counter("events_scheduled_total"), 4);
        assert_eq!(r.counter("events_executed_total"), 2);
        assert_eq!(r.counter("events_cancelled_total"), 2);
        assert_eq!(r.counter("event_exec/timer"), 0);
        assert_eq!(r.counter("event_stale/timer"), 1);
        assert_eq!(r.counter("event_unpopped/timer"), 1);
        assert_eq!(r.counter("component_exec/transport"), 2);
        assert_eq!(r.counter("component_exec/timer"), 1);
        assert_eq!(r.gauge("queue_peak_depth"), 4);
        // Zero kinds are still present (schema stability).
        assert_eq!(r.counter("event_sched/reroute"), 0);
        assert!(r.hist("event_fanout/reroute").is_some());
        assert_eq!(p.series_get("events").unwrap().total_count(), 3);
    }
}
