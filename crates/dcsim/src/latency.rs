//! The latency ledger: per-flow wall-time decomposition with a closed
//! conservation invariant.
//!
//! Every flow owns a [`FlowLedger`] that splits its completion time into the
//! seven [`Phase`]s **exactly** — `Σ phases == FCT` with zero unattributed
//! time, `debug_assert`ed in debug builds like the MMU and per-link
//! conservation ledgers.
//!
//! # How conservation is closed
//!
//! The ledger maintains a per-flow timeline frontier `last_ns`, initialized
//! at `FlowStart`. Every packet of the flow that reaches an endpoint
//! (forward data at the receiver, reverse ACK/NACK/CNP at the sender)
//! advances the frontier to its arrival time and attributes the whole
//! window `[last_ns, now)` — so the windows tile `[start, completion]` with
//! no gaps and no overlaps, and the final attribution happens at the very
//! arrival that completes the flow (`now == complete_at`).
//!
//! How a window is attributed depends on the recovery mode:
//!
//! * **Normal**: the arriving packet carries its own journey decomposition
//!   in [`JourneyStamps`] (stamped by the engine at the host-queue,
//!   switch-queue, and link-transmission sites; the five journey phases sum
//!   to `now - origin` exactly by construction). If the journey began at or
//!   after the frontier, the lead-in gap `[last, origin)` — time when
//!   nothing of this flow was between the two endpoints — is host/pacing
//!   wait, and the journey phases land verbatim. If the journey began
//!   *before* the frontier (pipelined packets whose journeys overlap), the
//!   journey is clipped to the window by [`eventsim::prorate_ns`] — an
//!   exact integer split, so the clipped shares still sum to the window.
//! * **FastRecovery / RtoStall**: the whole window is the recovery phase.
//!   `RtoStall` is entered when the forensics pass attributes an RTO (the
//!   stall window that led up to the firing is retro-attributed to
//!   `RtoStall` — that wait *was* the timeout the paper attacks);
//!   `FastRecovery` when a delivered ACK triggers fast/NACK retransmission.
//!   RTO outranks fast recovery. The mode clears when a forward data packet
//!   whose journey *began at or after* the mode was entered reaches the
//!   receiver — proof the retransmission round got through.
//!
//! Packets that are lost never attribute anything: their time surfaces as
//! the recovery windows (or host-wait gaps) that follow, which is exactly
//! the decomposition the paper argues about.
//!
//! The per-flow [`StallInterval`] ring (bounded, coalescing) retains the
//! recovery windows and PFC-pause shares for the span trees and the
//! Perfetto export; evicting an old interval never affects the phase sums.

use netsim::packet::JourneyStamps;
use telemetry::{Phase, PhaseTimes};

/// Per-flow bound on retained stall intervals (oldest evicted first).
pub const STALL_RING: usize = 16;

/// One stall interval on a flow's timeline (recovery window or PFC share).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StallInterval {
    /// Which stall phase ([`Phase::PfcPause`], [`Phase::FastRecovery`], or
    /// [`Phase::RtoStall`]).
    pub phase: Phase,
    /// Absolute sim-time start (ns). PFC shares are anchored at the end of
    /// the wait they were measured in (the pause bounds the dequeue).
    pub start_ns: u64,
    /// Interval length (ns).
    pub dur_ns: u64,
}

/// The flow's loss-recovery mode, driving window attribution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RecoveryMode {
    /// No recovery in progress: windows decompose by packet journey.
    #[default]
    Normal,
    /// Fast/NACK retransmission in flight; windows are [`Phase::FastRecovery`].
    Fast,
    /// An RTO fired; windows are [`Phase::RtoStall`]. Outranks `Fast`.
    Rto,
}

/// One flow's live ledger state, in the engine's per-flow side table
/// (allocated by `Engine::set_ledger`).
#[derive(Clone, Debug, Default)]
pub struct FlowLedger {
    /// Whether `FlowStart` has executed (pre-start flows attribute nothing).
    pub started: bool,
    /// The flow's start time (ns) — the FCT base.
    pub start_ns: u64,
    /// Timeline frontier: everything before this instant is attributed.
    pub last_ns: u64,
    /// Current recovery mode.
    pub mode: RecoveryMode,
    /// When the current recovery mode was entered (ns).
    pub mode_start_ns: u64,
    /// Accumulated per-phase nanoseconds.
    pub phases: PhaseTimes,
    stalls: Vec<StallInterval>,
}

impl FlowLedger {
    /// Opens the ledger at `FlowStart` execution time.
    pub fn begin(&mut self, now_ns: u64) {
        self.started = true;
        self.start_ns = now_ns;
        self.last_ns = now_ns;
    }

    /// The retained stall intervals, oldest first.
    pub fn stalls(&self) -> &[StallInterval] {
        &self.stalls
    }

    /// Appends a stall interval, coalescing with an abutting same-phase
    /// predecessor and evicting the oldest entry past [`STALL_RING`].
    fn note_stall(&mut self, phase: Phase, start_ns: u64, dur_ns: u64) {
        if dur_ns == 0 {
            return;
        }
        if let Some(last) = self.stalls.last_mut() {
            if last.phase == phase && last.start_ns + last.dur_ns == start_ns {
                last.dur_ns += dur_ns;
                return;
            }
        }
        if self.stalls.len() == STALL_RING {
            self.stalls.remove(0);
        }
        self.stalls.push(StallInterval {
            phase,
            start_ns,
            dur_ns,
        });
    }

    /// Attributes the recovery window `[last, now)` to `phase` and advances
    /// the frontier.
    fn close_recovery_window(&mut self, now_ns: u64, phase: Phase) {
        let dur = now_ns - self.last_ns;
        if dur > 0 {
            self.phases.add(phase, dur);
            self.note_stall(phase, self.last_ns, dur);
        }
        self.last_ns = now_ns;
    }

    /// A packet of this flow reached an endpoint at `now_ns` carrying
    /// journey `j`; attribute the window `[last, now)`. `data_fwd` is true
    /// for forward-direction data packets (the arrivals that can prove a
    /// recovery round succeeded and clear the mode).
    pub fn on_arrival(&mut self, now_ns: u64, j: &JourneyStamps, data_fwd: bool) {
        if !self.started {
            return;
        }
        match self.mode {
            RecoveryMode::Normal => {
                let t0 = j.origin_ns;
                let journey = j.serialize_ns + j.propagate_ns + j.queue_ns + j.host_ns + j.pause_ns;
                debug_assert_eq!(
                    journey,
                    now_ns - t0,
                    "packet journey is not contiguous: {j:?} arriving at {now_ns}"
                );
                if t0 >= self.last_ns {
                    // The journey sits wholly inside the window: the lead-in
                    // gap (nothing of this flow in the network) is host wait.
                    self.phases.add(Phase::HostWait, t0 - self.last_ns);
                    self.phases.add(Phase::Serialization, j.serialize_ns);
                    self.phases.add(Phase::Propagation, j.propagate_ns);
                    self.phases.add(Phase::SwitchQueue, j.queue_ns);
                    self.phases.add(Phase::HostWait, j.host_ns);
                    self.phases.add(Phase::PfcPause, j.pause_ns);
                    if j.pause_ns > 0 {
                        self.note_stall(Phase::PfcPause, now_ns - j.pause_ns, j.pause_ns);
                    }
                } else {
                    // Pipelined journey overlapping already-attributed time:
                    // clip it to the window with an exact integer split.
                    let window = now_ns - self.last_ns;
                    if window > 0 {
                        let weights = [
                            j.serialize_ns,
                            j.propagate_ns,
                            j.queue_ns,
                            j.host_ns,
                            j.pause_ns,
                        ];
                        let sh = eventsim::prorate_ns(window, &weights);
                        self.phases.add(Phase::Serialization, sh[0]);
                        self.phases.add(Phase::Propagation, sh[1]);
                        self.phases.add(Phase::SwitchQueue, sh[2]);
                        self.phases.add(Phase::HostWait, sh[3]);
                        self.phases.add(Phase::PfcPause, sh[4]);
                        if sh[4] > 0 {
                            self.note_stall(Phase::PfcPause, now_ns - sh[4], sh[4]);
                        }
                    }
                }
                self.last_ns = now_ns;
            }
            RecoveryMode::Fast | RecoveryMode::Rto => {
                let phase = if self.mode == RecoveryMode::Rto {
                    Phase::RtoStall
                } else {
                    Phase::FastRecovery
                };
                self.close_recovery_window(now_ns, phase);
                if data_fwd && j.origin_ns >= self.mode_start_ns {
                    // A data packet sent after recovery began got through:
                    // the round succeeded, resume journey attribution.
                    self.mode = RecoveryMode::Normal;
                }
            }
        }
    }

    /// The forensics pass attributed an RTO at `now_ns`: the stall window
    /// that led up to the firing is retro-attributed to [`Phase::RtoStall`]
    /// (if the flow was in fast recovery, that window becomes RTO stall too
    /// — the timer fired *because* recovery was not progressing).
    pub fn on_rto(&mut self, now_ns: u64) {
        if !self.started {
            return;
        }
        self.close_recovery_window(now_ns, Phase::RtoStall);
        self.mode = RecoveryMode::Rto;
        self.mode_start_ns = now_ns;
    }

    /// A delivered ACK triggered fast/NACK retransmission at `now_ns`. The
    /// triggering arrival already attributed its window, so only the mode
    /// flips; RTO recovery outranks.
    pub fn on_fast_retx(&mut self, now_ns: u64) {
        if !self.started || self.mode == RecoveryMode::Rto {
            return;
        }
        self.mode = RecoveryMode::Fast;
        self.mode_start_ns = now_ns;
    }

    /// Seals the ledger into its end-of-run record; `end_ns` is the flow's
    /// completion time when it finished inside the horizon. This is where
    /// the tentpole invariant is audited (in debug builds): for a completed
    /// flow the per-arrival windows must tile [start, completion] exactly,
    /// so Σ phases == FCT with zero unattributed time — across the full
    /// fault grid, not just clean runs.
    pub fn record(&self, flow: u32, end_ns: Option<u64>) -> FlowLedgerRecord {
        let rec = FlowLedgerRecord {
            flow,
            start_ns: self.start_ns,
            end_ns,
            phases: self.phases,
            stalls: self.stalls.clone(),
        };
        debug_assert_eq!(
            rec.residue(),
            end_ns.map(|_| 0i128),
            "flow {flow}: latency ledger not conserved ({:?})",
            rec.phases
        );
        rec
    }
}

/// One flow's sealed ledger, surfaced on `SimResult::ledger`.
#[derive(Clone, Debug)]
pub struct FlowLedgerRecord {
    /// Flow id (index into the run's flow list).
    pub flow: u32,
    /// Flow start (ns).
    pub start_ns: u64,
    /// Completion (ns); `None` when the flow did not finish in the horizon.
    pub end_ns: Option<u64>,
    /// The closed per-phase decomposition.
    pub phases: PhaseTimes,
    /// Retained stall intervals, oldest first (bounded ring).
    pub stalls: Vec<StallInterval>,
}

impl FlowLedgerRecord {
    /// Flow completion time, when the flow finished.
    pub fn fct_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e - self.start_ns)
    }

    /// `Σ phases - FCT` for completed flows: zero iff conservation closed.
    pub fn residue(&self) -> Option<i128> {
        self.fct_ns()
            .map(|fct| self.phases.total() as i128 - fct as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_ring_coalesces_and_bounds() {
        let mut lg = FlowLedger::default();
        lg.begin(0);
        lg.note_stall(Phase::RtoStall, 100, 50);
        lg.note_stall(Phase::RtoStall, 150, 25); // abuts: coalesce
        assert_eq!(lg.stalls().len(), 1);
        assert_eq!(lg.stalls()[0].dur_ns, 75);
        lg.note_stall(Phase::PfcPause, 175, 10); // phase change: new entry
        lg.note_stall(Phase::RtoStall, 300, 10); // gap: new entry
        assert_eq!(lg.stalls().len(), 3);
        for i in 0..2 * STALL_RING as u64 {
            lg.note_stall(Phase::FastRecovery, 1000 + 100 * i, 10);
        }
        assert_eq!(lg.stalls().len(), STALL_RING, "ring is bounded");
        lg.note_stall(Phase::RtoStall, u64::MAX - 10, 0); // zero-length: ignored
        assert_eq!(lg.stalls().len(), STALL_RING);
    }

    #[test]
    fn rto_window_closes_and_record_reports_residue() {
        let mut lg = FlowLedger::default();
        lg.begin(1_000);
        lg.on_rto(5_000);
        assert_eq!(lg.mode, RecoveryMode::Rto);
        assert_eq!(lg.phases.get(Phase::RtoStall), 4_000);
        assert_eq!(lg.last_ns, 5_000);
        let rec = lg.record(3, Some(5_000));
        assert_eq!(rec.fct_ns(), Some(4_000));
        assert_eq!(rec.residue(), Some(0));
        let rec = lg.record(3, None);
        assert_eq!(rec.fct_ns(), None);
        assert_eq!(rec.residue(), None);
    }

    #[test]
    fn fast_retx_is_outranked_by_rto() {
        let mut lg = FlowLedger::default();
        lg.begin(0);
        lg.on_fast_retx(100);
        assert_eq!(lg.mode, RecoveryMode::Fast);
        lg.on_rto(200);
        assert_eq!(lg.mode, RecoveryMode::Rto);
        lg.on_fast_retx(300);
        assert_eq!(lg.mode, RecoveryMode::Rto, "RTO outranks fast recovery");
        // Pre-start calls are ignored entirely.
        let mut idle = FlowLedger::default();
        idle.on_rto(500);
        idle.on_fast_retx(600);
        assert_eq!(idle.phases.total(), 0);
        assert_eq!(idle.mode, RecoveryMode::Normal);
    }

    /// The Σ phases == FCT audit is live: a ledger whose windows stop short
    /// of the completion it is sealed with fails at `record`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "latency ledger not conserved")]
    fn record_audit_fires_on_untiled_windows() {
        let mut lg = FlowLedger::default();
        lg.begin(1_000);
        lg.on_rto(5_000);
        let _ = lg.record(0, Some(6_000));
    }

    mod journeys {
        use super::*;

        fn journey(
            origin: u64,
            ser: u64,
            prop: u64,
            queue: u64,
            host: u64,
            pause: u64,
        ) -> JourneyStamps {
            JourneyStamps {
                origin_ns: origin,
                wait_since_ns: 0,
                pause_cum_ns: 0,
                serialize_ns: ser,
                propagate_ns: prop,
                queue_ns: queue,
                host_ns: host,
                pause_ns: pause,
            }
        }

        /// The hooks the engine calls build the stamps the tests below
        /// write by hand, and such a journey closes the ledger.
        #[test]
        fn stamps_built_through_the_hooks_close_the_ledger() {
            let mut j = JourneyStamps::default();
            j.start(1_000, 0);
            j.wait_end(1_050, 0, true);
            j.on_wire(100, 200);
            j.wait_begin(1_350, 30);
            j.wait_end(1_600, 130, false);
            j.on_wire(100, 200);
            let want = JourneyStamps {
                wait_since_ns: 1_350,
                pause_cum_ns: 30,
                ..journey(1_000, 200, 400, 150, 50, 100)
            };
            assert_eq!(j, want);
            let mut lg = FlowLedger::default();
            lg.begin(1_000);
            lg.on_arrival(1_900, &j, true);
            let rec = lg.record(0, Some(1_900));
            assert_eq!(rec.residue(), Some(0));
        }

        #[test]
        fn sequential_journeys_tile_the_timeline_exactly() {
            let mut lg = FlowLedger::default();
            lg.begin(1_000);
            // Journey 1: starts at flow start, arrives at 1_500.
            lg.on_arrival(1_500, &journey(1_000, 100, 200, 150, 50, 0), true);
            // Gap [1_500, 2_000) then journey 2 arrives at 2_600.
            lg.on_arrival(2_600, &journey(2_000, 200, 200, 100, 0, 100), true);
            assert_eq!(lg.phases.total(), 2_600 - 1_000, "Σ phases == elapsed");
            assert_eq!(lg.phases.get(Phase::HostWait), 50 + 500);
            assert_eq!(lg.phases.get(Phase::PfcPause), 100);
            assert_eq!(lg.stalls().len(), 1, "pause share retained");
            let rec = lg.record(0, Some(2_600));
            assert_eq!(rec.residue(), Some(0));
        }

        #[test]
        fn pipelined_journeys_are_clipped_not_double_counted() {
            let mut lg = FlowLedger::default();
            lg.begin(0);
            lg.on_arrival(1_000, &journey(0, 500, 500, 0, 0, 0), true);
            // Second packet's journey overlaps [500, 1_400): only the
            // unattributed window [1_000, 1_400) may land.
            lg.on_arrival(1_400, &journey(500, 300, 300, 200, 100, 0), true);
            assert_eq!(lg.phases.total(), 1_400, "window clipped exactly");
            let rec = lg.record(0, Some(1_400));
            assert_eq!(rec.residue(), Some(0));
        }

        #[test]
        fn recovery_windows_swallow_whole_gaps_until_fresh_data_lands() {
            let mut lg = FlowLedger::default();
            lg.begin(0);
            lg.on_arrival(1_000, &journey(0, 400, 600, 0, 0, 0), true);
            lg.on_rto(9_000);
            assert_eq!(lg.phases.get(Phase::RtoStall), 8_000);
            // A stale data packet (sent before the RTO) arrives: window is
            // still RTO stall, mode stays.
            lg.on_arrival(9_500, &journey(8_000, 500, 1_000, 0, 0, 0), true);
            assert_eq!(lg.mode, RecoveryMode::Rto);
            assert_eq!(lg.phases.get(Phase::RtoStall), 8_500);
            // The retransmission (sent after mode_start) gets through.
            lg.on_arrival(10_000, &journey(9_200, 300, 500, 0, 0, 0), true);
            assert_eq!(lg.mode, RecoveryMode::Normal);
            assert_eq!(lg.phases.total(), 10_000);
            assert_eq!(lg.record(0, Some(10_000)).residue(), Some(0));
            // ACK arrivals (data_fwd == false) never clear recovery.
            lg.on_fast_retx(10_000);
            lg.on_arrival(10_200, &journey(10_100, 50, 50, 0, 0, 0), false);
            assert_eq!(lg.mode, RecoveryMode::Fast);
            assert_eq!(lg.phases.get(Phase::FastRecovery), 200);
        }
    }
}
