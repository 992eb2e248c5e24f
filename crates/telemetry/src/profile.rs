//! The `series` section of `tlt-metrics/v1`: event-level engine profiles
//! with sim-time windowed series.
//!
//! An engine profile is what the run-time-attached engine profiler hands back
//! per run: an [`Artifact`] whose registry holds per-event-kind and
//! per-component counters and cost histograms, and whose `series` track how
//! the run progressed *in simulated time* — events executed per window,
//! packets in flight, aggregate queue occupancy.
//!
//! Everything merges deterministically so the bench harness can fold
//! per-job profiles in plan order and get byte-identical JSON for
//! `--jobs 1` and `--jobs N`:
//!
//! * the registry merges as every registry does (sum / max / bucket-sum),
//! * a series' window width is always `2^k` nanoseconds, so two series
//!   recorded at different granularities align exactly — the finer one is
//!   coalesced down to the coarser before an element-wise add.
//!
//! A series is *bounded*: at most [`SERIES_MAX_BUCKETS`] buckets. When a
//! sample lands past the end, the window width doubles and adjacent bucket
//! pairs merge, so a series covering any run length costs O(1) memory and
//! the export stays small. No wall-clock anywhere — this module is safe
//! for sim crates (`clippy.toml`'s D2).

use std::fmt::Write as _;

use eventsim::SimTime;

use crate::artifact::Artifact;
use crate::json::Cursor;

/// Initial (and minimum) series window width: 2^16 ns ≈ 65.5 µs.
pub const SERIES_BASE_WINDOW_NS: u64 = 1 << 16;

/// Upper bound on buckets per series; overflowing doubles the window.
pub const SERIES_MAX_BUCKETS: usize = 512;

/// One sim-time window's accumulated samples.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SeriesBucket {
    /// Sum of sample values in the window (saturating).
    pub sum: u64,
    /// Number of samples in the window.
    pub count: u64,
    /// Largest sample in the window.
    pub max: u64,
}

impl SeriesBucket {
    fn fold(&mut self, other: &SeriesBucket) {
        self.sum = self.sum.saturating_add(other.sum);
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    fn is_empty(&self) -> bool {
        self.count == 0 && self.sum == 0 && self.max == 0
    }
}

/// A bounded, mergeable time-bucketed series over simulated time.
///
/// Bucket `i` covers sim-time `[i * window_ns, (i + 1) * window_ns)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TimeSeries {
    window_ns: u64,
    buckets: Vec<SeriesBucket>,
}

impl Default for TimeSeries {
    fn default() -> TimeSeries {
        TimeSeries {
            window_ns: SERIES_BASE_WINDOW_NS,
            buckets: Vec::new(),
        }
    }
}

impl TimeSeries {
    /// An empty series at the base window width.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// An empty series with an explicit window width.
    ///
    /// # Panics
    ///
    /// Panics unless `window_ns` is a power of two (the alignment invariant
    /// that makes cross-run merges exact).
    pub fn with_window_ns(window_ns: u64) -> TimeSeries {
        assert!(
            window_ns.is_power_of_two(),
            "series window must be a power of two, got {window_ns}"
        );
        TimeSeries {
            window_ns,
            buckets: Vec::new(),
        }
    }

    /// Current window width in nanoseconds (a power of two; grows as the
    /// series coalesces).
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// The buckets, index 0 starting at sim-time zero. The last bucket is
    /// never empty (interior gaps may be).
    pub fn buckets(&self) -> &[SeriesBucket] {
        &self.buckets
    }

    /// Records sample `v` at sim-time `t`, doubling the window as needed to
    /// stay within [`SERIES_MAX_BUCKETS`].
    pub fn record(&mut self, t: SimTime, v: u64) {
        let mut idx = (t.as_ns() / self.window_ns) as usize;
        while idx >= SERIES_MAX_BUCKETS {
            self.coalesce();
            idx = (t.as_ns() / self.window_ns) as usize;
        }
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, SeriesBucket::default());
        }
        let b = &mut self.buckets[idx];
        b.sum = b.sum.saturating_add(v);
        b.count += 1;
        b.max = b.max.max(v);
    }

    /// Sum of all sample values.
    pub fn total_sum(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |a, b| a.saturating_add(b.sum))
    }

    /// Total number of samples recorded.
    pub fn total_count(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// Largest single sample across all windows.
    pub fn max_value(&self) -> u64 {
        self.buckets.iter().map(|b| b.max).max().unwrap_or(0)
    }

    /// Doubles the window width, merging adjacent bucket pairs.
    fn coalesce(&mut self) {
        self.window_ns *= 2;
        let mut merged = Vec::with_capacity(self.buckets.len().div_ceil(2));
        for pair in self.buckets.chunks(2) {
            let mut b = pair[0];
            if let Some(second) = pair.get(1) {
                b.fold(second);
            }
            merged.push(b);
        }
        self.buckets = merged;
    }

    /// Folds `other` into `self`. Window widths need not match: the finer
    /// side is coalesced to the coarser width first, so the result is the
    /// same series that a single sequential run would have produced.
    pub fn merge(&mut self, other: &TimeSeries) {
        while self.window_ns < other.window_ns {
            self.coalesce();
        }
        let ratio = (self.window_ns / other.window_ns) as usize;
        for (i, b) in other.buckets.iter().enumerate() {
            if b.is_empty() {
                continue;
            }
            let idx = i / ratio;
            if idx >= self.buckets.len() {
                self.buckets.resize(idx + 1, SeriesBucket::default());
            }
            self.buckets[idx].fold(b);
        }
    }

    /// Appends the series' JSON object: `{"window_ns":N,"buckets":[[i,sum,count,max],..]}`.
    pub(crate) fn push_json(&self, s: &mut String) {
        let _ = write!(s, "{{\"window_ns\":{},\"buckets\":[", self.window_ns);
        let mut first = true;
        for (i, b) in self.buckets.iter().enumerate() {
            if b.is_empty() {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "[{i},{},{},{}]", b.sum, b.count, b.max);
        }
        s.push_str("]}");
    }

    pub(crate) fn parse(c: &mut Cursor) -> Result<TimeSeries, String> {
        let mut window = 0u64;
        let mut buckets: Vec<SeriesBucket> = Vec::new();
        c.object(|c, key| match &*key {
            "window_ns" => {
                window = c.u64()?;
                Ok(())
            }
            "buckets" => c.array(|c| {
                c.expect('[')?;
                let i = c.u64()?;
                c.expect(',')?;
                let sum = c.u64()?;
                c.expect(',')?;
                let count = c.u64()?;
                c.expect(',')?;
                let max = c.u64()?;
                c.expect(']')?;
                if i >= SERIES_MAX_BUCKETS as u64 {
                    return Err(format!(
                        "series bucket index {i} exceeds cap {SERIES_MAX_BUCKETS}"
                    ));
                }
                let i = i as usize;
                if i >= buckets.len() {
                    buckets.resize(i + 1, SeriesBucket::default());
                }
                if !buckets[i].is_empty() {
                    return Err(format!("duplicate series bucket index {i}"));
                }
                buckets[i] = SeriesBucket { sum, count, max };
                Ok(())
            }),
            _ => Err(format!("unknown series field {key:?}")),
        })?;
        if !window.is_power_of_two() {
            return Err(format!("series window_ns {window} is not a power of two"));
        }
        Ok(TimeSeries {
            window_ns: window,
            buckets,
        })
    }
}

impl Artifact {
    /// The named series, created empty on first use.
    pub fn series_mut(&mut self, name: &str) -> &mut TimeSeries {
        self.series.entry(name.to_string()).or_default()
    }

    /// The named series, if it recorded anything.
    pub fn series_get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// The observatory view: the per-event-kind breakdown, component
    /// tallies, queue depth and series summaries.
    pub(crate) fn render_profile(&self, s: &mut String) {
        let kinds: Vec<String> = self
            .reg
            .counters()
            .filter_map(|(k, _)| k.strip_prefix("event_sched/").map(|k| k.to_string()))
            .collect();
        if !kinds.is_empty() {
            let _ = writeln!(
                s,
                "  {:<14} {:>12} {:>12} {:>10} {:>10} {:>12} {:>12}",
                "event kind", "sched", "exec", "stale", "unpopped", "fanout p50", "fanout p99"
            );
            for kind in &kinds {
                let g = |pre: &str| self.reg.counter(&format!("{pre}/{kind}"));
                let (p50, p99) = self
                    .reg
                    .hist(&format!("event_fanout/{kind}"))
                    .map(|h| (h.quantile(50), h.quantile(99)))
                    .unwrap_or((0, 0));
                let _ = writeln!(
                    s,
                    "  {kind:<14} {:>12} {:>12} {:>10} {:>10} {p50:>12} {p99:>12}",
                    g("event_sched"),
                    g("event_exec"),
                    g("event_stale"),
                    g("event_unpopped"),
                );
            }
        }
        let comps: Vec<(String, u64)> = self
            .reg
            .counters()
            .filter_map(|(k, v)| {
                k.strip_prefix("component_exec/")
                    .map(|k| (k.to_string(), v))
            })
            .collect();
        if !comps.is_empty() {
            let _ = write!(s, "  components:");
            for (k, v) in comps {
                let _ = write!(s, " {k}={v}");
            }
            s.push('\n');
        }
        if self.reg.gauge("queue_peak_depth") > 0 {
            let _ = writeln!(
                s,
                "  queue peak depth: {}",
                self.reg.gauge("queue_peak_depth")
            );
        }
        if let Some(h) = self.reg.hist("queue_depth") {
            let _ = writeln!(
                s,
                "  queue depth after pop: p50 {} p99 {} max {}",
                h.quantile(50),
                h.quantile(99),
                h.max()
            );
        }
        if !self.series.is_empty() {
            let _ = writeln!(
                s,
                "  {:<14} {:>12} {:>8} {:>16} {:>12}",
                "series", "window", "buckets", "total", "max sample"
            );
            for (k, ts) in &self.series {
                let _ = writeln!(
                    s,
                    "  {k:<14} {:>10}ns {:>8} {:>16} {:>12}",
                    ts.window_ns(),
                    ts.buckets().len(),
                    ts.total_sum(),
                    ts.max_value()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_records_and_doubles_window_under_cap() {
        let mut ts = TimeSeries::new();
        assert_eq!(ts.window_ns(), SERIES_BASE_WINDOW_NS);
        ts.record(SimTime::from_ns(0), 1);
        ts.record(SimTime::from_ns(SERIES_BASE_WINDOW_NS - 1), 3);
        ts.record(SimTime::from_ns(SERIES_BASE_WINDOW_NS), 5);
        assert_eq!(ts.buckets().len(), 2);
        assert_eq!(
            ts.buckets()[0],
            SeriesBucket {
                sum: 4,
                count: 2,
                max: 3
            }
        );
        // A sample far past the cap forces coalescing, preserving totals.
        let far = SERIES_BASE_WINDOW_NS * SERIES_MAX_BUCKETS as u64 * 3;
        ts.record(SimTime::from_ns(far), 7);
        assert!(ts.window_ns() > SERIES_BASE_WINDOW_NS);
        assert!(ts.window_ns().is_power_of_two());
        assert!(ts.buckets().len() <= SERIES_MAX_BUCKETS);
        assert_eq!(ts.total_sum(), 16);
        assert_eq!(ts.total_count(), 4);
        assert_eq!(ts.max_value(), 7);
    }

    #[test]
    fn series_merge_matches_sequential_recording_across_windows() {
        // `b` is forced to a coarser window than `a`; the merge must still
        // equal one series that saw every sample.
        let samples_a = [(0u64, 2u64), (70_000, 4), (200_000, 1)];
        let far = SERIES_BASE_WINDOW_NS * SERIES_MAX_BUCKETS as u64 * 2;
        let samples_b = [(10u64, 9u64), (far, 6)];
        let mut a = TimeSeries::new();
        for &(t, v) in &samples_a {
            a.record(SimTime::from_ns(t), v);
        }
        let mut b = TimeSeries::new();
        for &(t, v) in &samples_b {
            b.record(SimTime::from_ns(t), v);
        }
        let mut all = TimeSeries::new();
        for &(t, v) in samples_a.iter().chain(&samples_b) {
            all.record(SimTime::from_ns(t), v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        // And merging the coarse one into the fine one agrees as well.
        let mut merged2 = b.clone();
        merged2.merge(&a);
        assert_eq!(merged2, all);
    }

    #[test]
    fn series_window_assertion_rejects_non_power_of_two() {
        let ts = TimeSeries::with_window_ns(1 << 20);
        assert_eq!(ts.window_ns(), 1 << 20);
        let r = std::panic::catch_unwind(|| TimeSeries::with_window_ns(1000));
        assert!(r.is_err());
    }

    fn sample_profile() -> Artifact {
        let mut p = Artifact::new();
        p.reg.set_meta("scale", "quick");
        p.reg.set_meta("note", "a \"quoted\" \\ note, µs");
        p.reg.inc("event_sched/deliver", 10);
        p.reg.inc("event_exec/deliver", 9);
        p.reg.inc("event_stale/deliver", 0);
        p.reg.inc("event_unpopped/deliver", 1);
        p.reg.inc("component_exec/switch", 6);
        p.reg.gauge_max("queue_peak_depth", 12);
        p.reg.observe("event_fanout/deliver", 2);
        p.reg.observe("queue_depth", 4);
        let ts = p.series_mut("events");
        ts.record(SimTime::from_ns(100), 1);
        ts.record(SimTime::from_ns(200_000), 1);
        p.series_mut("inflight_pkts").record(SimTime::from_ns(0), 3);
        p.series_mut("odd \"series\" \\ µ")
            .record(SimTime::from_ns(9), 1);
        p
    }

    #[test]
    fn profile_json_roundtrips_and_is_stable() {
        let p = sample_profile();
        let json = p.to_json();
        assert!(json.contains("\"schema\": \"tlt-metrics/v1\""), "{json}");
        assert!(json.contains("\"series\""), "{json}");
        let back = Artifact::parse(&json).expect("parses");
        assert_eq!(back, p);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn profile_parse_rejects_corrupt_input_with_diagnostics() {
        let json = sample_profile().to_json();
        crate::json::assert_every_prefix_rejected(&json, Artifact::parse);
        let err = Artifact::parse(
            "{\"schema\": \"tlt-metrics/v1\", \"series\": {\"e\": {\"window_ns\":1000,\"buckets\":[]}}}",
        )
        .unwrap_err();
        assert!(err.contains("power of two"), "{err}");
        let err = Artifact::parse(
            "{\"schema\": \"tlt-metrics/v1\", \"series\": {\"e\": {\"window_ns\":65536,\"buckets\":[[0,1,1,1],[0,1,1,1]]}}}",
        )
        .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn profile_merge_folds_registry_and_series() {
        let mut a = sample_profile();
        let mut b = Artifact::new();
        b.reg.inc("event_sched/deliver", 5);
        b.reg.gauge_max("queue_peak_depth", 40);
        b.series_mut("events").record(SimTime::from_ns(100), 2);
        b.series_mut("queue_bytes").record(SimTime::from_ns(50), 99);
        a.merge(&b);
        assert_eq!(a.reg.counter("event_sched/deliver"), 15);
        assert_eq!(a.reg.gauge("queue_peak_depth"), 40);
        assert_eq!(a.series_get("events").unwrap().total_sum(), 4);
        assert_eq!(a.series_get("queue_bytes").unwrap().total_sum(), 99);
    }

    #[test]
    fn render_shows_kind_table_and_series() {
        let text = sample_profile().render();
        assert!(text.contains("event kind"), "{text}");
        assert!(text.contains("deliver"), "{text}");
        assert!(text.contains("components"), "{text}");
        assert!(text.contains("events"), "{text}");
        assert!(text.contains("quick"), "{text}");
    }
}
