//! Trace inspection: re-read a JSONL trace and summarize it.
//!
//! A trace may hold several runs, each bracketed by
//! [`TraceEvent::RunStart`]/[`TraceEvent::RunEnd`]. Per run the inspector
//! builds per-switch drop-reason tables, a PFC pause timeline, and checks
//! the counted events against the aggregate totals the producer declared in
//! `RunEnd` — a self-verifying trace needs no side channel to detect
//! truncation or instrumentation gaps.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead};

use eventsim::SimTime;

use crate::event::{DropWhy, FaultKind, RtoCauseCounts, TraceEvent};
use crate::sink::{CountingSink, NodeCounts, TraceCounts, TraceSink};

/// One PFC pause episode on a switch ingress port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PauseSpan {
    /// Switch node id.
    pub node: u32,
    /// Ingress port.
    pub port: u32,
    /// XOFF time.
    pub start: SimTime,
    /// XON time; `None` if the port was still paused at end of run.
    pub end: Option<SimTime>,
}

/// One injected fault, as recorded on the trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultRecord {
    /// When the fault took effect.
    pub at: SimTime,
    /// What happened.
    pub kind: FaultKind,
    /// Targeted node.
    pub node: u32,
    /// Targeted port.
    pub port: u32,
}

/// Totals declared by the producer in [`TraceEvent::RunEnd`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct DeclaredTotals {
    /// Color-threshold drops.
    pub drops_color: u64,
    /// Dynamic-threshold drops.
    pub drops_dt: u64,
    /// Buffer-overflow drops.
    pub drops_overflow: u64,
    /// Wire-corruption losses.
    pub wire_drops: u64,
    /// Frames destroyed on failed (down) links.
    pub down_drops: u64,
    /// PFC PAUSE frames.
    pub pause_frames: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Per-cause RTO attribution.
    pub rto_causes: RtoCauseCounts,
}

/// Summary of one `RunStart`..`RunEnd` bracket.
pub struct RunSummary {
    /// Scheme/figure label from `RunStart`.
    pub label: String,
    /// RNG seed from `RunStart`.
    pub seed: u64,
    /// Counters over the run's events.
    pub totals: TraceCounts,
    /// Counters per switch node.
    pub per_node: BTreeMap<u32, NodeCounts>,
    /// Drop cross-tabulation: `(node, reason) -> count`.
    pub drop_matrix: BTreeMap<(u32, DropWhy), u64>,
    /// RTO root causes counted from `RtoForensic` events.
    pub rto_causes: RtoCauseCounts,
    /// Totals the producer declared in `RunEnd` (`None` if the run was
    /// truncated before its `RunEnd`).
    pub declared: Option<DeclaredTotals>,
    /// PFC pause episodes, in XOFF order.
    pub pauses: Vec<PauseSpan>,
    /// Injected faults, in application order.
    pub faults: Vec<FaultRecord>,
    /// Number of events in the run (excluding the brackets).
    pub events: u64,
    /// Time of the last event seen (the `RunEnd` time when present).
    pub end_t: SimTime,
}

impl RunSummary {
    /// Checks the counted events against the declared totals.
    ///
    /// Returns the list of mismatches, empty when the trace is internally
    /// consistent. A missing `RunEnd` is itself a mismatch.
    pub fn check(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let Some(d) = self.declared else {
            errs.push("run has no run_end record (truncated trace?)".to_string());
            return errs;
        };
        let mut chk = |name: &str, counted: u64, declared: u64| {
            if counted != declared {
                errs.push(format!(
                    "{name}: trace counts {counted}, run declared {declared}"
                ));
            }
        };
        chk("drops_color", self.totals.drops_color, d.drops_color);
        chk("drops_dt", self.totals.drops_dt, d.drops_dt);
        chk(
            "drops_overflow",
            self.totals.drops_overflow,
            d.drops_overflow,
        );
        chk("wire_drops", self.totals.drops_wire, d.wire_drops);
        // Drops attributed to downed links must match the DropWhy::LinkDown
        // accounting on the trace.
        chk("down_drops", self.totals.drops_down, d.down_drops);
        chk("pause_frames", self.totals.pauses, d.pause_frames);
        chk("timeouts", self.totals.timeouts, d.timeouts);
        // The forensic attribution stream must agree with the declared
        // rto_cause_* breakdown, cause by cause.
        for (cause, declared) in d.rto_causes.iter() {
            let mut name = String::from("rto_cause_");
            name.push_str(cause.as_str());
            chk(&name, self.rto_causes.get(cause), declared);
        }
        // And the per-(node, reason) cross-tab must re-sum to the declared
        // switch-local drop totals (wire/down drops can involve hosts and
        // are checked via their totals above).
        let column = |why: DropWhy| {
            self.drop_matrix
                .iter()
                .filter(|((_, w), _)| *w == why)
                .map(|(_, n)| n)
                .sum::<u64>()
        };
        chk("matrix drops_color", column(DropWhy::Color), d.drops_color);
        chk("matrix drops_dt", column(DropWhy::Dynamic), d.drops_dt);
        chk(
            "matrix drops_overflow",
            column(DropWhy::Overflow),
            d.drops_overflow,
        );
        errs
    }

    /// Renders the run as a human-readable report section.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "run \"{}\" (seed {})", self.label, self.seed);
        let _ = writeln!(
            s,
            "  {} events, ended at {} ns; flows {} started / {} finished",
            self.events,
            self.end_t.as_ns(),
            self.totals.flows_started,
            self.totals.flows_finished
        );
        let _ = writeln!(
            s,
            "  totals: drops color={} dt={} overflow={} wire={} down={} (green victims={}), \
             ce={} xoff={} xon={} timeouts={} fast_retx={}",
            self.totals.drops_color,
            self.totals.drops_dt,
            self.totals.drops_overflow,
            self.totals.drops_wire,
            self.totals.drops_down,
            self.totals.drops_green,
            self.totals.ce_marked,
            self.totals.pauses,
            self.totals.resumes,
            self.totals.timeouts,
            self.totals.fast_retx,
        );
        if self.totals.timeouts > 0 || self.rto_causes.total() > 0 {
            let causes = self
                .rto_causes
                .iter()
                .filter(|(_, n)| *n > 0)
                .map(|(c, n)| format!("{}={n}", c.as_str()))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                s,
                "  rto causes: {} ({} of {} attributed)",
                if causes.is_empty() { "-" } else { &causes },
                self.rto_causes.known(),
                self.totals.timeouts,
            );
        }
        if self
            .per_node
            .values()
            .any(|n| n.switch_drops() + n.drops_wire + n.drops_down + n.ce_marked + n.pauses > 0)
        {
            // Full DropWhy x switch cross-tab (wire/down columns show
            // frames lost while *this node* transmitted them).
            let _ = writeln!(
                s,
                "  {:>6} {:>8} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "node", "color", "dt", "overflow", "wire", "down", "green", "ce", "xoff"
            );
            let cell =
                |node: u32, why: DropWhy| self.drop_matrix.get(&(node, why)).copied().unwrap_or(0);
            for (node, n) in &self.per_node {
                if n.switch_drops() + n.drops_wire + n.drops_down + n.ce_marked + n.pauses == 0 {
                    continue;
                }
                let _ = writeln!(
                    s,
                    "  {node:>6} {:>8} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    cell(*node, DropWhy::Color),
                    cell(*node, DropWhy::Dynamic),
                    cell(*node, DropWhy::Overflow),
                    cell(*node, DropWhy::Wire),
                    cell(*node, DropWhy::LinkDown),
                    n.drops_green,
                    n.ce_marked,
                    n.pauses
                );
            }
        }
        if !self.faults.is_empty() {
            let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
            for f in &self.faults {
                *by_kind.entry(f.kind.as_str()).or_default() += 1;
            }
            let kinds = by_kind
                .iter()
                .map(|(k, n)| format!("{k}={n}"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                s,
                "  faults ({} events: {kinds}); reroutes={}, down-link drops={}",
                self.faults.len(),
                self.totals.reroutes,
                self.totals.drops_down,
            );
            const MAX_FAULTS: usize = 40;
            let _ = writeln!(s, "  fault timeline:");
            for f in self.faults.iter().take(MAX_FAULTS) {
                let _ = writeln!(
                    s,
                    "    {:>12} ns  {:<12} node {} port {}",
                    f.at.as_ns(),
                    f.kind.as_str(),
                    f.node,
                    f.port
                );
            }
            if self.faults.len() > MAX_FAULTS {
                let _ = writeln!(
                    s,
                    "    ... {} more fault events omitted",
                    self.faults.len() - MAX_FAULTS
                );
            }
        }
        if !self.pauses.is_empty() {
            // Long PFC-heavy runs produce thousands of episodes; keep the
            // report readable and summarize the tail.
            const MAX_EPISODES: usize = 40;
            let _ = writeln!(s, "  pause timeline ({} episodes):", self.pauses.len());
            for p in self.pauses.iter().take(MAX_EPISODES) {
                match p.end {
                    Some(end) => {
                        let _ = writeln!(
                            s,
                            "    switch {} port {}: paused {} .. {} ns ({} ns)",
                            p.node,
                            p.port,
                            p.start.as_ns(),
                            end.as_ns(),
                            end.as_ns().saturating_sub(p.start.as_ns())
                        );
                    }
                    None => {
                        let _ = writeln!(
                            s,
                            "    switch {} port {}: paused {} ns .. end of run",
                            p.node,
                            p.port,
                            p.start.as_ns()
                        );
                    }
                }
            }
            if self.pauses.len() > MAX_EPISODES {
                let _ = writeln!(
                    s,
                    "    ... {} more episodes omitted",
                    self.pauses.len() - MAX_EPISODES
                );
            }
        }
        let errs = self.check();
        if errs.is_empty() {
            let _ = writeln!(s, "  consistency: OK (trace counts match declared totals)");
        } else {
            for e in &errs {
                let _ = writeln!(s, "  consistency: MISMATCH {e}");
            }
        }
        s
    }
}

/// The result of inspecting a whole trace.
#[derive(Default)]
pub struct Report {
    /// Runs in file order.
    pub runs: Vec<RunSummary>,
    /// Lines that are not UTF-8 or do not decode to an event.
    pub malformed: u64,
    /// Events seen outside any `RunStart`..`RunEnd` bracket.
    pub orphans: u64,
}

impl Report {
    /// Whether every run is internally consistent and nothing was malformed
    /// or orphaned.
    pub fn is_clean(&self) -> bool {
        self.malformed == 0
            && self.orphans == 0
            && !self.runs.is_empty()
            && self.runs.iter().all(|r| r.check().is_empty())
    }

    /// Renders the whole report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{} run(s) in trace", self.runs.len());
        if self.malformed > 0 {
            let _ = writeln!(s, "WARNING: {} malformed line(s) skipped", self.malformed);
        }
        if self.orphans > 0 {
            let _ = writeln!(
                s,
                "WARNING: {} event(s) outside any run bracket",
                self.orphans
            );
        }
        for r in &self.runs {
            s.push('\n');
            s.push_str(&r.render());
        }
        s
    }
}

/// In-flight state while folding one run.
struct RunBuilder {
    label: String,
    seed: u64,
    counts: CountingSink,
    pauses: Vec<PauseSpan>,
    faults: Vec<FaultRecord>,
    open_pause: BTreeMap<(u32, u32), usize>,
    events: u64,
    declared: Option<DeclaredTotals>,
    end_t: SimTime,
}

impl RunBuilder {
    fn new(label: String, seed: u64, t: SimTime) -> RunBuilder {
        RunBuilder {
            label,
            seed,
            counts: CountingSink::default(),
            pauses: Vec::new(),
            faults: Vec::new(),
            open_pause: BTreeMap::new(),
            events: 0,
            declared: None,
            end_t: t,
        }
    }

    fn absorb(&mut self, t: SimTime, ev: &TraceEvent) {
        self.events += 1;
        self.end_t = t;
        self.counts.record(t, ev);
        match ev {
            TraceEvent::PfcXoff { node, port } => {
                let idx = self.pauses.len();
                self.pauses.push(PauseSpan {
                    node: *node,
                    port: *port,
                    start: t,
                    end: None,
                });
                self.open_pause.insert((*node, *port), idx);
            }
            TraceEvent::PfcXon { node, port } => {
                if let Some(idx) = self.open_pause.remove(&(*node, *port)) {
                    self.pauses[idx].end = Some(t);
                }
            }
            TraceEvent::Fault { kind, node, port } => {
                self.faults.push(FaultRecord {
                    at: t,
                    kind: *kind,
                    node: *node,
                    port: *port,
                });
            }
            _ => {}
        }
    }

    fn finish(self) -> RunSummary {
        RunSummary {
            label: self.label,
            seed: self.seed,
            totals: self.counts.totals,
            per_node: self.counts.per_node(),
            drop_matrix: self.counts.drop_matrix(),
            rto_causes: self.counts.rto_causes,
            declared: self.declared,
            pauses: self.pauses,
            faults: self.faults,
            events: self.events,
            end_t: self.end_t,
        }
    }
}

/// Inspects a trace held in memory.
pub fn inspect_str(text: &str) -> Report {
    inspect_reader(text.as_bytes()).expect("a byte slice reads without error")
}

/// Inspects a trace read line by line from `reader` (e.g. a file). Lines
/// end at `\n` (a `\r` before it is dropped); a line that is not UTF-8 is
/// malformed, like any line that does not decode to an event, and blank
/// lines are skipped.
pub fn inspect_reader(mut reader: impl BufRead) -> io::Result<Report> {
    let mut report = Report::default();
    let mut current: Option<RunBuilder> = None;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let decoded = match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => TraceEvent::from_jsonl(line),
            Err(_) => None,
        };
        let Some((t, ev)) = decoded else {
            report.malformed += 1;
            continue;
        };
        match ev {
            TraceEvent::RunStart { label, seed } => {
                // An unterminated previous run still gets reported.
                if let Some(b) = current.take() {
                    report.runs.push(b.finish());
                }
                current = Some(RunBuilder::new(label, seed, t));
            }
            TraceEvent::RunEnd {
                drops_color,
                drops_dt,
                drops_overflow,
                wire_drops,
                down_drops,
                pause_frames,
                timeouts,
                rto_causes,
            } => match current.take() {
                Some(mut b) => {
                    b.end_t = t;
                    b.declared = Some(DeclaredTotals {
                        drops_color,
                        drops_dt,
                        drops_overflow,
                        wire_drops,
                        down_drops,
                        pause_frames,
                        timeouts,
                        rto_causes,
                    });
                    report.runs.push(b.finish());
                }
                None => report.orphans += 1,
            },
            other => match &mut current {
                Some(b) => b.absorb(t, &other),
                None => report.orphans += 1,
            },
        }
    }
    if let Some(b) = current.take() {
        report.runs.push(b.finish());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropWhy;
    use crate::sink::{BufferSink, TraceSink};

    /// Builds a two-run trace via the real JSONL sink.
    fn sample_trace(declared_color: u64) -> String {
        let mut sink = BufferSink::new();
        let mut t = 0u64;
        let mut emit = |ev: TraceEvent| {
            t += 10;
            sink.record(SimTime::from_ns(t), &ev);
        };
        emit(TraceEvent::RunStart {
            label: "unit/one".into(),
            seed: 3,
        });
        emit(TraceEvent::FlowStart {
            flow: 0,
            bytes: 64_000,
        });
        emit(TraceEvent::Drop {
            node: 1,
            port: 0,
            flow: 0,
            seq: 0,
            why: DropWhy::Color,
            green: false,
        });
        emit(TraceEvent::PfcXoff { node: 1, port: 2 });
        emit(TraceEvent::PfcXon { node: 1, port: 2 });
        emit(TraceEvent::PfcXoff { node: 1, port: 3 }); // still open at end
        emit(TraceEvent::Timeout { flow: 0, seq: 0 });
        emit(TraceEvent::FlowEnd { flow: 0 });
        emit(TraceEvent::RunEnd {
            drops_color: declared_color,
            drops_dt: 0,
            drops_overflow: 0,
            wire_drops: 0,
            down_drops: 0,
            pause_frames: 2,
            timeouts: 1,
            rto_causes: Default::default(),
        });
        emit(TraceEvent::RunStart {
            label: "unit/two".into(),
            seed: 4,
        });
        emit(TraceEvent::RunEnd {
            drops_color: 0,
            drops_dt: 0,
            drops_overflow: 0,
            wire_drops: 0,
            down_drops: 0,
            pause_frames: 0,
            timeouts: 0,
            rto_causes: Default::default(),
        });
        String::from_utf8(sink.take_bytes()).unwrap()
    }

    #[test]
    fn consistent_trace_reports_clean() {
        let report = inspect_str(&sample_trace(1));
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.malformed, 0);
        assert_eq!(report.orphans, 0);
        assert!(report.is_clean(), "{}", report.render());
        let run = &report.runs[0];
        assert_eq!(run.label, "unit/one");
        assert_eq!(run.seed, 3);
        assert_eq!(run.totals.drops_color, 1);
        assert_eq!(run.per_node[&1].drops_color, 1);
        assert_eq!(run.pauses.len(), 2);
        assert_eq!(run.pauses[0].end.map(|t| t.as_ns()), Some(50));
        assert!(run.pauses[1].end.is_none(), "port 3 never resumed");
        let text = report.render();
        assert!(text.contains("unit/one"));
        assert!(text.contains("consistency: OK"));
    }

    #[test]
    fn mismatched_totals_are_flagged() {
        let report = inspect_str(&sample_trace(9));
        assert!(!report.is_clean());
        let errs = report.runs[0].check();
        // Both the global total and the per-switch cross-tab disagree.
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].contains("drops_color"), "{errs:?}");
        assert!(errs[1].contains("matrix drops_color"), "{errs:?}");
        assert!(report.render().contains("MISMATCH"));
    }

    /// A run with a link flap, a fault-attributed drop, and a reroute.
    fn fault_trace(declared_down: u64) -> String {
        let mut sink = BufferSink::new();
        let mut t = 0u64;
        let mut emit = |ev: TraceEvent| {
            t += 100;
            sink.record(SimTime::from_ns(t), &ev);
        };
        emit(TraceEvent::RunStart {
            label: "faults/flap".into(),
            seed: 1,
        });
        emit(TraceEvent::Fault {
            kind: FaultKind::LinkDown,
            node: 50,
            port: 0,
        });
        emit(TraceEvent::Drop {
            node: 50,
            port: 0,
            flow: 7,
            seq: 1440,
            why: DropWhy::LinkDown,
            green: true,
        });
        emit(TraceEvent::Reroute { flow: 7, ok: true });
        emit(TraceEvent::Fault {
            kind: FaultKind::LinkUp,
            node: 50,
            port: 0,
        });
        emit(TraceEvent::RunEnd {
            drops_color: 0,
            drops_dt: 0,
            drops_overflow: 0,
            wire_drops: 0,
            down_drops: declared_down,
            pause_frames: 0,
            timeouts: 0,
            rto_causes: Default::default(),
        });
        String::from_utf8(sink.take_bytes()).unwrap()
    }

    #[test]
    fn fault_events_build_a_timeline_and_cross_check() {
        let report = inspect_str(&fault_trace(1));
        assert!(report.is_clean(), "{}", report.render());
        let run = &report.runs[0];
        assert_eq!(run.faults.len(), 2);
        assert_eq!(run.faults[0].kind, FaultKind::LinkDown);
        assert_eq!(run.faults[1].kind, FaultKind::LinkUp);
        assert_eq!((run.faults[0].node, run.faults[0].port), (50, 0));
        assert!(run.faults[0].at < run.faults[1].at);
        assert_eq!(run.totals.drops_down, 1);
        assert_eq!(run.totals.faults, 2);
        assert_eq!(run.totals.reroutes, 1);
        let text = report.render();
        assert!(text.contains("fault timeline"), "{text}");
        assert!(text.contains("link_down=1"), "{text}");
        assert!(text.contains("link_up=1"), "{text}");
        assert!(text.contains("reroutes=1"), "{text}");
    }

    #[test]
    fn down_drop_mismatch_is_flagged() {
        // Declares 9 down-link drops but the trace carries only 1.
        let report = inspect_str(&fault_trace(9));
        assert!(!report.is_clean());
        let errs = report.runs[0].check();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("down_drops"), "{errs:?}");
    }

    /// A run with one timeout attributed by a forensic record.
    fn forensic_trace(declared_pfc: u64) -> String {
        use crate::event::RtoCause;
        let mut sink = BufferSink::new();
        let mut t = 0u64;
        let mut emit = |ev: TraceEvent| {
            t += 10;
            sink.record(SimTime::from_ns(t), &ev);
        };
        emit(TraceEvent::RunStart {
            label: "forensic/one".into(),
            seed: 8,
        });
        emit(TraceEvent::Timeout { flow: 3, seq: 2880 });
        emit(TraceEvent::RtoForensic {
            flow: 3,
            seq: 2880,
            cause: RtoCause::PfcStall,
            node: 4,
            port: 1,
            root_at: SimTime::from_ns(5),
        });
        let mut rc = RtoCauseCounts::default();
        rc.add(RtoCause::PfcStall, declared_pfc);
        emit(TraceEvent::RunEnd {
            drops_color: 0,
            drops_dt: 0,
            drops_overflow: 0,
            wire_drops: 0,
            down_drops: 0,
            pause_frames: 0,
            timeouts: 1,
            rto_causes: rc,
        });
        String::from_utf8(sink.take_bytes()).unwrap()
    }

    #[test]
    fn forensic_events_cross_check_declared_causes() {
        let report = inspect_str(&forensic_trace(1));
        assert!(report.is_clean(), "{}", report.render());
        let run = &report.runs[0];
        assert_eq!(run.totals.timeouts, 1);
        assert_eq!(run.totals.rto_forensics, 1);
        assert_eq!(run.rto_causes.get(crate::event::RtoCause::PfcStall), 1);
        assert_eq!(run.rto_causes.known(), 1);
        let text = report.render();
        assert!(
            text.contains("rto causes: pfc=1 (1 of 1 attributed)"),
            "{text}"
        );
    }

    #[test]
    fn forensic_cause_mismatch_is_flagged() {
        // Declares zero pfc-attributed RTOs but the trace carries one.
        let report = inspect_str(&forensic_trace(0));
        assert!(!report.is_clean());
        let errs = report.runs[0].check();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("rto_cause_pfc"), "{errs:?}");
    }

    #[test]
    fn a_resume_stamped_before_its_pause_still_renders() {
        let text = concat!(
            "{\"t\":0,\"ev\":\"run_start\",\"label\":\"x\",\"seed\":0}\n",
            "{\"t\":100,\"ev\":\"xoff\",\"node\":1,\"port\":0}\n",
            "{\"t\":50,\"ev\":\"xon\",\"node\":1,\"port\":0}\n",
        );
        assert!(inspect_str(text)
            .render()
            .contains("paused 100 .. 50 ns (0 ns)"));
    }

    #[test]
    fn truncated_and_orphaned_traces_are_flagged() {
        // Orphan event before any run, then a run with no run_end.
        let mut sink = BufferSink::new();
        sink.record(SimTime::from_ns(1), &TraceEvent::FlowEnd { flow: 0 });
        sink.record(
            SimTime::from_ns(2),
            &TraceEvent::RunStart {
                label: "cut".into(),
                seed: 0,
            },
        );
        sink.record(
            SimTime::from_ns(3),
            &TraceEvent::FlowStart { flow: 1, bytes: 10 },
        );
        let text = String::from_utf8(sink.take_bytes()).unwrap();
        let report = inspect_str(&format!("not json\n{text}"));
        assert_eq!(report.malformed, 1);
        assert_eq!(report.orphans, 1);
        assert_eq!(report.runs.len(), 1);
        assert!(report.runs[0].declared.is_none());
        assert!(report.runs[0].check()[0].contains("no run_end"));
        assert!(!report.is_clean());
    }
}
