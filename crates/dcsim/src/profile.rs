//! The event-level engine profiler, attached at run time by
//! `Engine::set_profile` (`--profile-out`).
//!
//! The engine holds an `Option<Box<EngineProf>>` and calls it from its run
//! loop (and from the per-flow timer-disarm sweep), so an unprofiled run
//! pays one test of a register per event and no byte of state.
//! `ATTACH_ALWAYS` is the one place
//! a cargo feature is named: `profile`, kept as the alias the benchmark
//! package's traced build selects, makes every `Engine::new` attach the
//! profiler.
//!
//! The profiler answers the question ROADMAP items 1–2 keep asking: where
//! do the engine's millions of events per second actually go? It tracks,
//! per [`EvKind`]:
//!
//! * **scheduled / executed / cancelled** counts. Cancellation in this
//!   engine is generation-based (a stale timer pops and no-ops) or
//!   implicit (events still queued — disarmed timers, post-horizon
//!   samples — when the run ends), so both flavors are reported:
//!   `event_stale/*` and `event_unpopped/*`. Every event the queue takes
//!   ends one of those three ways, so the profiler watches pops only and
//!   reports `sched = exec + stale + unpopped` per kind; their sum is
//!   checked against the queue's own push count.
//! * a **fan-out histogram** — how many new events each executed event
//!   scheduled. Wall-clock per event would break the determinism contract
//!   (and `clippy.toml`'s D2); fan-out is the deterministic cost proxy that
//!   correlates with handler work, and the wall side lives in
//!   `benchmark/`, where clocks are allowed.
//! * **per-component tallies** (switch / link / transport / timer / fault /
//!   sampler), splitting `Deliver` by where the frame landed — the per-LP
//!   accounting a conservative-PDES shard split will need.
//! * **queue health**: depth histogram after every pop, peak depth,
//!   push/pop churn, and timer-disarm sweep cost.
//! * three sim-time [`TimeSeries`]: events executed
//!   per window, packets in flight, and aggregate switch queue occupancy.
//!
//! Everything is integer and BTreeMap-ordered, so the exported
//! profile artifact (`tlt-metrics/v1` with a `series` section) is
//! byte-identical across `--jobs N`.

use eventsim::{EventQueue, SimTime};
use telemetry::{Artifact, Hist, TimeSeries, SERIES_BASE_WINDOW_NS};

/// Whether every engine attaches the profiler as it is built. Only the
/// benchmark package's traced build turns this on (through the `profile`
/// feature); everything else attaches it per run with
/// `Engine::set_profile`.
pub(crate) const ATTACH_ALWAYS: bool = cfg!(feature = "profile");

/// Number of event kinds in [`EvKind::ALL`].
pub const N_KINDS: usize = EvKind::ALL.len();

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

telemetry::all_variants! {
    EvKind: FlowStart, TxDone, Deliver, Timer, PfcSet, QueueSample, TraceSample, Fault, StormEnd,
    Reroute
}

impl EvKind {
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

/// Where a `Deliver` left its frame: how the profiler splits `Deliver`s
/// (`deliver_endpoint`, `deliver_transit`, `deliver_destroyed`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Landed {
    /// Handed to a flow endpoint.
    Endpoint,
    /// Enqueued (or dropped) at a transit switch.
    Transit,
    /// Found its wire down or its path rerouted away.
    Destroyed,
}

/// Per-run profiler state, owned by the engine once attached. It watches
/// pops only: every event the queue takes is popped (executed or stale) or
/// left unpopped, so its schedule count is `popped + unpopped` per kind,
/// and a profile covers the whole run whenever it attaches before
/// `Engine::run`, with no hook where events are scheduled.
#[derive(Default)]
pub(crate) struct EngineProf {
    popped: [u64; N_KINDS],
    stale: [u64; N_KINDS],
    unpopped: [u64; N_KINDS],
    fanout: [Hist; N_KINDS],
    depth: Hist,
    deliver_endpoint: u64,
    deliver_transit: u64,
    deliver_destroyed: u64,
    /// Completed flows whose timer slots were swept.
    pub(crate) disarm_sweeps: u64,
    /// Armed slots those sweeps cancelled.
    pub(crate) disarm_cancels: u64,
    /// Next sim-time (ns) at which to sample the gauge series.
    next_window: u64,
    s_events: TimeSeries,
    s_inflight: TimeSeries,
    s_qbytes: TimeSeries,
}

impl EngineProf {
    /// Called after an event executes: `fanout` is how many events the
    /// handler scheduled, `depth` the queue length left behind.
    #[inline]
    pub(crate) fn on_pop(&mut self, kind: EvKind, t: SimTime, fanout: u64, depth: u64) {
        let i = kind.idx();
        self.popped[i] += 1;
        self.fanout[i].observe(fanout);
        self.depth.observe(depth);
        self.s_events.record(t, 1);
    }

    /// A `Deliver` executed and left its frame `at`.
    #[inline]
    pub(crate) fn on_landed(&mut self, at: Landed) {
        match at {
            Landed::Endpoint => self.deliver_endpoint += 1,
            Landed::Transit => self.deliver_transit += 1,
            Landed::Destroyed => self.deliver_destroyed += 1,
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

    /// Samples the gauge series for the window containing `t`: the frames
    /// on the wire (`Deliver`s scheduled and not yet executed) and the
    /// aggregate switch queue bytes.
    pub(crate) fn on_window(&mut self, t: SimTime, inflight: u64, queue_bytes: u64) {
        self.s_inflight.record(t, inflight);
        self.s_qbytes.record(t, queue_bytes);
        self.next_window = (t.as_ns() / SERIES_BASE_WINDOW_NS + 1) * SERIES_BASE_WINDOW_NS;
    }

    /// Seals the run: everything still queued (post-horizon samples,
    /// disarmed timers, events orphaned by the all-flows-done break) is
    /// cancelled-by-truncation, drained here through `kind`. The queue's
    /// health counters are snapshotted first so the accounting drain
    /// itself isn't measured.
    pub(crate) fn seal<E>(
        &mut self,
        queue: &mut EventQueue<E>,
        kind: impl Fn(&E) -> EvKind,
    ) -> Artifact {
        let peak = queue.peak_len() as u64;
        let pushes = queue.scheduled_total();
        let pops = queue.pops_total();
        while let Some((_, ev)) = queue.pop() {
            self.on_unpopped(kind(&ev));
        }
        self.finish(peak, pushes, pops)
    }

    /// Builds the profile [`Artifact`]. `peak`/`pushes`/`pops` come from the event
    /// queue's own health counters; `pops` is snapshotted before the
    /// end-of-run drain that feeds `on_unpopped`. Every name is always
    /// written, even at zero, so the exported schema is identical across
    /// runs and configurations.
    fn finish(&mut self, peak: u64, pushes: u64, pops: u64) -> Artifact {
        let mut p = Artifact::new();
        let exec = |s: &Self, k: EvKind| s.popped[k.idx()] - s.stale[k.idx()];
        let sched = |s: &Self, i: usize| s.popped[i] + s.unpopped[i];

        let (mut sched_t, mut exec_t, mut stale_t, mut unpopped_t) = (0u64, 0u64, 0u64, 0u64);
        for k in EvKind::ALL {
            let i = k.idx();
            let r = &mut p.reg;
            r.inc(&format!("event_sched/{}", k.name()), sched(self, i));
            r.inc(&format!("event_exec/{}", k.name()), exec(self, k));
            r.inc(&format!("event_stale/{}", k.name()), self.stale[i]);
            r.inc(&format!("event_unpopped/{}", k.name()), self.unpopped[i]);
            r.merge_hist(&format!("event_fanout/{}", k.name()), &self.fanout[i]);
            sched_t += sched(self, i);
            exec_t += exec(self, k);
            stale_t += self.stale[i];
            unpopped_t += self.unpopped[i];
        }
        // Every event the queue took must end up executed, stale, or
        // unpopped.
        debug_assert_eq!(sched_t, pushes, "a pushed event was not accounted");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_named_uniquely() {
        let mut names = std::collections::BTreeSet::new();
        for k in EvKind::ALL {
            assert!(names.insert(k.name()), "duplicate name {}", k.name());
        }
        assert_eq!(names.len(), N_KINDS);
    }

    #[test]
    fn finish_reports_invariant_totals() {
        let mut prof = EngineProf::default();
        prof.on_pop(EvKind::FlowStart, SimTime::from_ns(10), 1, 3);
        prof.on_pop(EvKind::Deliver, SimTime::from_ns(20), 0, 2);
        prof.on_landed(Landed::Endpoint);
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
