//! Key-by-key comparison of two artifacts (`trace_inspect --diff`).
//!
//! Each [`Artifact`] is flattened into a key → count map — counters,
//! gauges, each histogram's count, sum and max, and each series' sum and
//! sample count (the span trees are not compared) — and every key that
//! moved is reported. Every value is an exact count of a deterministic
//! run, so nothing is graded: a moved key is a behaviour change to
//! investigate. Speed is measured elsewhere, by the repo benchmark
//! (`benchmark/run.sh`).
//!
//! Provenance metadata guards against apples-to-oranges comparisons: a
//! `scale`, `build_profile`, or `seeds` value present in *both* documents
//! but different is a refusal; a value missing from one side only warns.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::artifact::Artifact;

/// Every comparable count of `a`, keyed hierarchically
/// (`counter/event_exec/deliver`, `hist/fct_us/sum`, `series/events/count`).
pub fn flatten(a: &Artifact) -> BTreeMap<String, u64> {
    let mut nums = BTreeMap::new();
    for (k, v) in a.reg.counters() {
        nums.insert(format!("counter/{k}"), v);
    }
    for (k, v) in a.reg.gauges() {
        nums.insert(format!("gauge/{k}"), v);
    }
    for (k, h) in a.reg.hists() {
        nums.insert(format!("hist/{k}/count"), h.count);
        nums.insert(format!("hist/{k}/sum"), h.sum);
        nums.insert(format!("hist/{k}/max"), h.max());
    }
    for (k, ts) in &a.series {
        nums.insert(format!("series/{k}/sum"), ts.total_sum());
        nums.insert(format!("series/{k}/count"), ts.total_count());
    }
    nums
}

/// One key's before/after pair.
#[derive(Debug)]
pub struct Delta {
    /// Flattened key.
    pub key: String,
    /// Value in the old artifact.
    pub old: u64,
    /// Value in the new artifact.
    pub new: u64,
}

impl Delta {
    /// Percent change relative to `old` (`None` when `old == 0`).
    pub fn pct(&self) -> Option<f64> {
        (self.old != 0).then(|| (self.new as f64 - self.old as f64) / self.old as f64 * 100.0)
    }
}

/// The full comparison of two artifacts.
#[derive(Debug)]
pub struct Comparison {
    /// Per-key pairs for keys present in both documents, in key order.
    pub deltas: Vec<Delta>,
    /// Keys only the old document has (removed measurements).
    pub only_old: Vec<String>,
    /// Keys only the new document has (added measurements).
    pub only_new: Vec<String>,
    /// Non-fatal provenance notes.
    pub warnings: Vec<String>,
    /// A provenance mismatch that makes the two incomparable.
    pub refusal: Option<String>,
}

impl Comparison {
    /// Keys whose value moved.
    pub fn changed(&self) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(|d| d.old != d.new)
    }

    /// Renders the human-readable table: one row per moved key.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for w in &self.warnings {
            let _ = writeln!(s, "warning: {w}");
        }
        let _ = writeln!(s, "{:<52}{:>14}{:>14}{:>9}", "key", "old", "new", "delta");
        for d in self.changed() {
            let pct = d.pct().map_or("n/a".to_string(), |p| format!("{p:+.1}%"));
            let _ = writeln!(s, "{:<52}{:>14}{:>14}{:>9}", d.key, d.old, d.new, pct);
        }
        if !self.only_old.is_empty() {
            let _ = writeln!(s, "only in old: {}", self.only_old.join(", "));
        }
        if !self.only_new.is_empty() {
            let _ = writeln!(s, "only in new: {}", self.only_new.join(", "));
        }
        let _ = writeln!(
            s,
            "{} keys compared, {} changed",
            self.deltas.len(),
            self.changed().count()
        );
        s
    }
}

/// Provenance keys that make two artifacts incomparable when they differ.
const STRICT_META: [&str; 3] = ["scale", "build_profile", "seeds"];

/// Compares two artifacts. Provenance mismatches populate
/// `refusal`/`warnings`.
pub fn compare(old: &Artifact, new: &Artifact) -> Comparison {
    let mut warnings = Vec::new();
    let mut refusals = Vec::new();
    for key in STRICT_META {
        match (old.reg.meta_get(key), new.reg.meta_get(key)) {
            (Some(a), Some(b)) if a != b => {
                refusals.push(format!("{key} mismatch: old is {a:?}, new is {b:?}"));
            }
            (None, Some(_)) | (Some(_), None) => warnings.push(format!(
                "{key} provenance missing from one side; comparability unverified"
            )),
            _ => {}
        }
    }

    let (old, new) = (flatten(old), flatten(new));
    let mut deltas = Vec::new();
    let mut only_old = Vec::new();
    for (key, &o) in &old {
        match new.get(key) {
            Some(&n) => deltas.push(Delta {
                key: key.clone(),
                old: o,
                new: n,
            }),
            None => only_old.push(key.clone()),
        }
    }
    let only_new = new
        .keys()
        .filter(|k| !old.contains_key(*k))
        .cloned()
        .collect();
    Comparison {
        deltas,
        only_old,
        only_new,
        warnings,
        refusal: (!refusals.is_empty()).then(|| refusals.join("; ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Phase, PhaseTimes};
    use crate::registry::Registry;
    use crate::serve::REQ_LATENCY_PREFIX;

    /// `reg` written out and read back, as `trace_inspect` loads a file.
    fn load(reg: Registry) -> Artifact {
        Artifact::parse(&reg.to_json()).expect("parses")
    }

    fn metrics(sent: u64, build: Option<&str>, scale: &str) -> Artifact {
        let mut reg = Registry::new();
        reg.inc("data_pkts_sent", sent);
        reg.gauge_max("queue_peak_bytes", 9000);
        reg.observe("fct_us", 250);
        reg.set_meta("scale", scale);
        if let Some(b) = build {
            reg.set_meta("build_profile", b);
        }
        load(reg)
    }

    #[test]
    fn flattens_counters_gauges_and_hists() {
        let nums = flatten(&metrics(128, Some("release"), "quick"));
        assert_eq!(nums["counter/data_pkts_sent"], 128);
        assert_eq!(nums["gauge/queue_peak_bytes"], 9000);
        assert_eq!(nums["hist/fct_us/count"], 1);
        assert_eq!(nums["hist/fct_us/sum"], 250);
        assert_eq!(nums["hist/fct_us/max"], 250);
        assert_eq!(nums.len(), 5);
    }

    #[test]
    fn flattens_profile_series_and_serve_layout() {
        let mut p = Artifact::new();
        p.reg.inc("event_exec/deliver", 42);
        p.series_mut("events").record(eventsim::SimTime::ZERO, 5);
        p.series_mut("events")
            .record(eventsim::SimTime::from_ns(1_000_000), 6);
        p.reg.inc("serve_requests/dctcp", 200);
        p.reg
            .observe(&format!("{REQ_LATENCY_PREFIX}dctcp"), 800_000);
        let nums = flatten(&Artifact::parse(&p.to_json()).expect("parses"));
        assert_eq!(nums["counter/event_exec/deliver"], 42);
        assert_eq!(nums["series/events/sum"], 11);
        assert_eq!(nums["series/events/count"], 2);
        assert_eq!(nums["counter/serve_requests/dctcp"], 200);
        assert_eq!(nums["hist/serve_req_latency_ns/dctcp/count"], 1);
    }

    fn spans(scale: u64) -> Artifact {
        let mut a = Artifact::new();
        let mut phases = PhaseTimes::default();
        phases.add(Phase::Serialization, 64_000 * scale);
        phases.add(Phase::RtoStall, 4_000_000 * scale);
        a.record_flow("dctcp+tlt", &phases, phases.total(), 0);
        a.record_violation("dctcp+tlt", Phase::RtoStall);
        a.reg.set_meta("scale", "k8");
        a
    }

    /// A 10x phase-time shift moves the sums and maxima, not the counts.
    #[test]
    fn phase_time_shift_moves_sums_not_counts() {
        let nums = flatten(&spans(1));
        assert_eq!(nums["counter/span_flows/dctcp+tlt"], 1);
        assert_eq!(
            nums["hist/span_phase_ns/dctcp+tlt/rto_stall/sum"],
            4_000_000
        );
        assert_eq!(nums["counter/serve_viol_phase/dctcp+tlt/rto_stall"], 1);
        let cmp = compare(&spans(1), &spans(10));
        assert!(cmp.refusal.is_none());
        assert!(cmp.changed().all(|d| !d.key.ends_with("/count")));
        assert!(cmp
            .changed()
            .any(|d| d.key == "hist/span_phase_ns/dctcp+tlt/rto_stall/sum"));
    }

    #[test]
    fn reports_exactly_the_keys_that_moved() {
        let old = metrics(128, Some("release"), "quick");
        let same = compare(&old, &old);
        assert_eq!(same.changed().count(), 0);
        assert!(same.render().contains("5 keys compared, 0 changed"));

        let cmp = compare(&old, &metrics(192, Some("release"), "quick"));
        assert!(cmp.refusal.is_none());
        let moved: Vec<_> = cmp.changed().collect();
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].key, "counter/data_pkts_sent");
        assert_eq!(moved[0].pct(), Some(50.0));
        let table = cmp.render();
        assert!(table.contains("+50.0%"), "{table}");
        assert!(table.contains("5 keys compared, 1 changed"), "{table}");
    }

    /// A key with a quote, a backslash and a non-ASCII char survives the
    /// export's escaping and reaches the table verbatim.
    #[test]
    fn escaped_keys_flatten_verbatim() {
        let doc = |n| {
            let mut reg = Registry::new();
            reg.inc("a\"b\\c µ", n);
            load(reg)
        };
        let cmp = compare(&doc(0), &doc(5));
        let moved: Vec<_> = cmp.changed().collect();
        assert_eq!(moved[0].key, "counter/a\"b\\c µ");
        assert_eq!((moved[0].old, moved[0].new, moved[0].pct()), (0, 5, None));
        assert!(
            cmp.render().contains("counter/a\"b\\c µ"),
            "{}",
            cmp.render()
        );
    }

    #[test]
    fn provenance_mismatch_refuses_and_missing_only_warns() {
        let release = metrics(1, Some("release"), "quick");
        let debug = metrics(1, Some("debug"), "quick");
        let cmp = compare(&release, &debug);
        assert!(cmp.refusal.as_deref().unwrap().contains("build_profile"));

        let cmp = compare(&metrics(1, None, "quick"), &release);
        assert!(cmp.refusal.is_none());
        assert!(cmp.warnings.iter().any(|w| w.contains("build_profile")));

        let cmp = compare(&release, &metrics(1, Some("release"), "full"));
        assert!(cmp.refusal.as_deref().unwrap().contains("scale"));
    }

    /// The diff reads through [`Artifact::parse`], so a truncated document
    /// never reaches it: every cut of a valid one is an error.
    #[test]
    fn every_truncation_is_refused_before_the_diff() {
        for mut a in [metrics(128, Some("release"), "quick"), spans(1)] {
            a.reg.set_meta("label", "a \"q\" \\ µ");
            crate::json::assert_every_prefix_rejected(&a.to_json(), Artifact::parse);
        }
    }
}
