//! A zero-dependency metrics registry: named counters, gauges, and
//! fixed-bucket log-linear histograms.
//!
//! The registry exists so the simulation can report *distributional*
//! telemetry (queue-depth occupancy, PFC pause durations) alongside plain
//! counters, while preserving the repository's determinism contract:
//!
//! * Every structure is keyed by `BTreeMap`, so iteration — and therefore
//!   the JSON export — is byte-stable across runs and across `--jobs N`.
//! * Histograms use *fixed* log-linear buckets (exact below 16, then four
//!   sub-buckets per power of two), so merging registries produced by
//!   parallel workers is an element-wise sum with no data-dependent bucket
//!   boundaries.
//! * All arithmetic is integer; no floats touch the stored state.
//!
//! Each registry also carries a `meta` section of string provenance
//! (`build_profile`, `cores`, `jobs`, `scale`, …) so `trace_inspect --diff`
//! can refuse apples-to-oranges comparisons. Meta merges first-wins: the
//! fold keeps the provenance of the run that stamped it.
//!
//! A registry is the body of every `tlt-metrics/v1` document:
//! [`Registry::to_json`] writes one with no optional sections, and
//! [`crate::Artifact::parse`] reads any of them back — with a positional
//! diagnostic on failure.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Cursor};

/// Number of fixed histogram buckets: 16 exact values (0..=15) plus four
/// sub-buckets for each power of two from 2^4 through 2^63.
pub const HIST_BUCKETS: usize = 16 + 60 * 4;

/// Bucket index of a value (log-linear: exact below 16, then 4 sub-buckets
/// per octave).
fn bucket_index(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize; // >= 4 here
        let sub = ((v >> (octave - 2)) & 3) as usize;
        16 + (octave - 4) * 4 + sub
    }
}

/// Lower bound of bucket `idx` (the value reported for quantiles).
fn bucket_lo(idx: usize) -> u64 {
    if idx < 16 {
        idx as u64
    } else {
        let rel = idx - 16;
        let octave = 4 + rel / 4;
        let sub = (rel % 4) as u64;
        (1u64 << octave) + (sub << (octave - 2))
    }
}

/// Inclusive upper bound of bucket `idx` (used by the midpoint estimator).
fn bucket_hi(idx: usize) -> u64 {
    if idx < 16 {
        idx as u64
    } else if idx + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        bucket_lo(idx + 1) - 1
    }
}

/// A fixed-bucket log-linear histogram of unsigned samples.
///
/// Relative bucket error is bounded by 1/4 above 16 and zero below it —
/// coarse enough to stay tiny (256 buckets), precise enough for p99-style
/// tail reporting of queue depths and pause durations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Hist {
    /// Samples observed.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }
}

impl Hist {
    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Smallest observed value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean of the observed values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Lower bound of the bucket holding the `pct`-th percentile sample
    /// (`pct` in 0..=100; integer arithmetic, so deterministic).
    pub fn quantile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as u128 * u128::from(pct.min(100)) / 100) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return bucket_lo(i);
            }
        }
        self.max
    }

    /// Bucket-midpoint percentile estimator at per-mille resolution (`q`
    /// in 0..=1000, so the p999 tail is expressible — `quantile_permille(999)`).
    ///
    /// Like [`Hist::quantile`] this is pure integer arithmetic over the
    /// log-linear buckets (deterministic and mergeable, no stored
    /// samples), but it estimates with the *midpoint* of the selected
    /// bucket, clamped to the observed min/max. Buckets are 1/4-octave
    /// wide above 16, so the estimate is within ±12.5% of the true sample
    /// value — the bounded-memory alternative to a per-request sample
    /// vector at thousands-of-hosts scale.
    pub fn quantile_permille(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as u128 * u128::from(q.min(1000)) / 1000) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                let lo = bucket_lo(i);
                let mid = lo + (bucket_hi(i) - lo) / 2;
                return mid.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Element-wise merge (the multi-worker fold).
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs in value order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (bucket_lo(i), *n))
            .collect()
    }

    /// Rebuilds a histogram from exported `(lower_bound, count)` pairs.
    ///
    /// Returns `None` if a lower bound is not an exact bucket boundary (the
    /// export is corrupt), a count overflows, or the summary fields are
    /// inconsistent.
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        pairs: &[(u64, u64)],
    ) -> Option<Hist> {
        let mut h = Hist {
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max,
            buckets: vec![0; HIST_BUCKETS],
        };
        let mut total = 0u64;
        for &(lo, n) in pairs {
            let idx = bucket_index(lo);
            if bucket_lo(idx) != lo {
                return None;
            }
            h.buckets[idx] = h.buckets[idx].checked_add(n)?;
            total = total.checked_add(n)?;
        }
        if total != count || (count > 0 && min > max) {
            return None;
        }
        Some(h)
    }
}

/// The registry: named counters (sum-merged), gauges (max-merged), and
/// histograms (bucket-merged), plus string provenance metadata
/// (first-wins-merged). See the module docs for the contract.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Registry {
    meta: BTreeMap<String, String>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `by` to counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Raises gauge `name` to `v` if `v` is larger (watermark semantics —
    /// the only gauge flavor that merges deterministically across workers).
    pub fn gauge_max(&mut self, name: &str, v: u64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = (*g).max(v),
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Records one sample into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        match self.hists.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Hist::default();
                h.observe(v);
                self.hists.insert(name.to_string(), h);
            }
        }
    }

    /// Folds a prebuilt histogram into `name` (creating it when absent) —
    /// lets hot paths accumulate into a local [`Hist`] with no name lookup
    /// and publish once at the end of the run.
    pub fn merge_hist(&mut self, name: &str, h: &Hist) {
        match self.hists.get_mut(name) {
            Some(mine) => mine.merge(h),
            None => {
                self.hists.insert(name.to_string(), h.clone());
            }
        }
    }

    /// Stamps provenance metadata `key` = `value` (overwriting).
    pub fn set_meta(&mut self, key: &str, value: &str) {
        self.meta.insert(key.to_string(), value.to_string());
    }

    /// Provenance value for `key`, if stamped.
    pub fn meta_get(&self, key: &str) -> Option<&str> {
        self.meta.get(key).map(|v| v.as_str())
    }

    /// All provenance metadata in key order.
    pub fn meta(&self) -> impl Iterator<Item = (&str, &str)> {
        self.meta.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name` (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if any sample was recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Hist)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing has been *recorded* (provenance metadata alone does
    /// not count — an empty run stays empty even after stamping).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Folds `other` into `self`: counters sum, gauges max, histograms
    /// bucket-merge, meta first-wins. Names present in either side survive,
    /// so folding the per-worker registries in plan order reproduces the
    /// sequential result.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.meta {
            if !self.meta.contains_key(k) {
                self.meta.insert(k.clone(), v.clone());
            }
        }
        for (k, v) in &other.counters {
            self.inc(k, *v);
        }
        for (k, v) in &other.gauges {
            self.gauge_max(k, *v);
        }
        for (k, h) in &other.hists {
            match self.hists.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.hists.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Serializes as a `tlt-metrics/v1` document with no optional
    /// sections (name-sorted, byte-stable).
    pub fn to_json(&self) -> String {
        crate::artifact::encode(self, &BTreeMap::new(), &[])
    }

    /// Writes the body sections (`meta` when non-empty, then
    /// `counters`/`gauges`/`hists`), each starting with a leading comma.
    pub(crate) fn push_body(&self, s: &mut String) {
        if !self.meta.is_empty() {
            s.push_str(",\n  \"meta\": {");
            push_map(s, &self.meta, |s, v| json::push_str(s, v));
            s.push('}');
        }
        let num = |s: &mut String, v: &u64| {
            let _ = write!(s, "{v}");
        };
        s.push_str(",\n  \"counters\": {");
        push_map(s, &self.counters, num);
        s.push_str("},\n  \"gauges\": {");
        push_map(s, &self.gauges, num);
        s.push_str("},\n  \"hists\": {");
        push_map(s, &self.hists, |s, h| {
            let _ = write!(
                s,
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.min(),
                h.max()
            );
            for (i, (lo, n)) in h.nonzero_buckets().iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{lo},{n}]");
            }
            s.push_str("]}");
        });
        s.push('}');
    }

    /// The plain dump of every counter, gauge and histogram — the render
    /// of a document no specialised view claims.
    pub(crate) fn render_body(&self, s: &mut String) {
        if !self.counters.is_empty() {
            let _ = writeln!(s, "  counters:");
            for (k, v) in &self.counters {
                let _ = writeln!(s, "    {k:<42} {v}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(s, "  gauges:");
            for (k, v) in &self.gauges {
                let _ = writeln!(s, "    {k:<42} {v}");
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(
                s,
                "  hists: {:<36} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "", "count", "min", "p50", "p99", "max"
            );
            for (k, h) in &self.hists {
                let _ = writeln!(
                    s,
                    "    {k:<42} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    h.count,
                    h.min(),
                    h.quantile(50),
                    h.quantile(99),
                    h.max()
                );
            }
        }
    }

    /// Reads one top-level body section (`meta`/`counters`/`gauges`/`hists`)
    /// into `self`; `Ok(false)` means `key` is not a body section.
    pub(crate) fn parse_body_key(&mut self, c: &mut Cursor, key: &str) -> Result<bool, String> {
        match key {
            "meta" => c.object(|c, k| {
                self.meta.insert(k.into_owned(), c.string()?.into_owned());
                Ok(())
            })?,
            "counters" => scalar_map(c, &mut self.counters)?,
            "gauges" => scalar_map(c, &mut self.gauges)?,
            "hists" => c.object(|c, name| {
                let h = hist(c).map_err(|e| format!("hist {name:?}: {e}"))?;
                self.hists.insert(name.into_owned(), h);
                Ok(())
            })?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// `{ "name": 1, ... }`
fn scalar_map(c: &mut Cursor, map: &mut BTreeMap<String, u64>) -> Result<(), String> {
    c.object(|c, k| {
        map.insert(k.into_owned(), c.u64()?);
        Ok(())
    })
}

/// `{"count":N,"sum":N,"min":N,"max":N,"buckets":[[lo,n],..]}`
fn hist(c: &mut Cursor) -> Result<Hist, String> {
    let (mut count, mut sum, mut min, mut max) = (0, 0, 0, 0);
    let mut pairs = Vec::new();
    c.object(|c, key| {
        match &*key {
            "count" => count = c.u64()?,
            "sum" => sum = c.u64()?,
            "min" => min = c.u64()?,
            "max" => max = c.u64()?,
            "buckets" => c.array(|c| {
                c.expect('[')?;
                let lo = c.u64()?;
                c.expect(',')?;
                pairs.push((lo, c.u64()?));
                c.expect(']')
            })?,
            _ => return c.fail(&format!("unknown hist field {key:?}")),
        }
        Ok(())
    })?;
    Hist::from_parts(count, sum, min, max, &pairs).ok_or_else(|| {
        "bucket data inconsistent with summary (bad boundary, count mismatch, or overflow)"
            .to_string()
    })
}

/// Writes a section's entries as `"key": <value>` lines, comma-separated,
/// closing on a newline when there are any.
pub(crate) fn push_map<V>(
    s: &mut String,
    map: &BTreeMap<String, V>,
    value: impl Fn(&mut String, &V),
) {
    for (i, (k, v)) in map.iter().enumerate() {
        s.push_str(if i == 0 { "\n    " } else { ",\n    " });
        json::push_str(s, k);
        s.push_str(": ");
        value(s, v);
    }
    if !map.is_empty() {
        s.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry body of a `tlt-metrics/v1` document.
    fn parse(text: &str) -> Result<Registry, String> {
        crate::Artifact::parse(text).map(|a| a.reg)
    }

    #[test]
    fn bucket_boundaries_are_monotone_and_self_consistent() {
        let mut prev = None;
        for idx in 0..HIST_BUCKETS {
            let lo = bucket_lo(idx);
            assert_eq!(bucket_index(lo), idx, "lo {lo} maps back to {idx}");
            if let Some(p) = prev {
                assert!(lo > p, "bucket {idx} lower bound not increasing");
            }
            prev = Some(lo);
        }
        // Values land in the bucket whose range covers them.
        for v in [0, 1, 15, 16, 17, 100, 1_000, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            assert!(bucket_lo(idx) <= v);
            if idx + 1 < HIST_BUCKETS {
                assert!(v < bucket_lo(idx + 1), "v {v} exceeds bucket {idx}");
            }
        }
    }

    #[test]
    fn hist_boundary_values_roundtrip_exactly() {
        // The exact/log-linear seam (15 -> 16) and both extremes.
        let edges = [0u64, 15, 16, u64::MAX];
        for &v in &edges {
            let idx = bucket_index(v);
            assert_eq!(bucket_index(bucket_lo(idx)), idx, "round-trip for {v}");
            assert!(bucket_lo(idx) <= v);
        }
        // Below 16 every bucket is exact: the lower bound IS the value.
        assert_eq!(bucket_lo(bucket_index(0)), 0);
        assert_eq!(bucket_lo(bucket_index(15)), 15);
        assert_eq!(bucket_lo(bucket_index(16)), 16);
        // u64::MAX falls in the very last bucket.
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);

        let mut h = Hist::default();
        for &v in &edges {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        // Sum saturates instead of wrapping.
        assert_eq!(h.sum, u64::MAX);
        // Quantiles are monotone in pct across the edge samples.
        let mut prev = 0;
        for pct in 0..=100u64 {
            let q = h.quantile(pct);
            assert!(q >= prev, "quantile({pct}) = {q} < {prev}");
            prev = q;
        }
        assert_eq!(h.quantile(0), 0);
        assert_eq!(h.quantile(100), bucket_lo(HIST_BUCKETS - 1));
    }

    /// Midpoint estimator vs a known uniform distribution: every
    /// percentile lands within the documented ±12.5% bucket error.
    #[test]
    fn quantile_permille_tracks_uniform_distribution() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.observe(v);
        }
        for (q, truth) in [
            (100u64, 10_000u64),
            (500, 50_000),
            (900, 90_000),
            (990, 99_000),
            (999, 99_900),
        ] {
            let est = h.quantile_permille(q);
            let err = est.abs_diff(truth) as f64 / truth as f64;
            assert!(err <= 0.125, "q={q}: est {est} vs {truth} ({err:.3})");
        }
        assert_eq!(h.quantile_permille(0), 1, "clamped to observed min");
        assert_eq!(h.quantile_permille(1000), 100_000, "p100 is the max");
    }

    /// p999 separates from p99 on a heavy-tailed set — the reason the
    /// serve SLO table needs per-mille resolution at all.
    #[test]
    fn quantile_permille_resolves_the_p999_tail() {
        let mut h = Hist::default();
        for _ in 0..995 {
            h.observe(100);
        }
        for _ in 0..5 {
            h.observe(1_000_000);
        }
        let p990 = h.quantile_permille(990);
        let p999 = h.quantile_permille(999);
        assert!(p990 <= 125, "body estimate {p990}");
        assert!(p999 >= 875_000, "tail estimate {p999}");
        // The legacy percent-resolution API cannot see the tail: its p99
        // stays in the body bucket while the per-mille p99.9 reaches it.
        let p99 = h.quantile(99);
        assert!(p99 <= 125 && p999 >= 875_000, "p99 {p99}, p99.9 {p999}");
    }

    /// Values below 16 are exact buckets: the midpoint estimator returns
    /// the sample values themselves, and the estimate is mergeable — a
    /// split-then-merge histogram answers exactly like the whole.
    #[test]
    fn quantile_permille_exact_small_values_and_mergeable() {
        let mut h = Hist::default();
        for v in [2u64, 4, 4, 9] {
            h.observe(v);
        }
        assert_eq!(h.quantile_permille(0), 2);
        assert_eq!(h.quantile_permille(500), 4);
        assert_eq!(h.quantile_permille(1000), 9);

        let mut rng = eventsim::SimRng::seed_from(0x51_0E);
        let mut whole = Hist::default();
        let mut left = Hist::default();
        let mut right = Hist::default();
        for i in 0..10_000 {
            let v = rng.gen_range_u64(1..5_000_000);
            whole.observe(v);
            if i % 2 == 0 {
                left.observe(v);
            } else {
                right.observe(v);
            }
        }
        left.merge(&right);
        for q in [0u64, 10, 250, 500, 900, 990, 999, 1000] {
            assert_eq!(left.quantile_permille(q), whole.quantile_permille(q));
        }
        // Monotone in q.
        let mut prev = 0;
        for q in (0..=1000u64).step_by(25) {
            let est = whole.quantile_permille(q);
            assert!(est >= prev, "quantile_permille({q}) regressed");
            prev = est;
        }
        // Empty histogram reports 0, like the other accessors.
        assert_eq!(Hist::default().quantile_permille(999), 0);
    }

    #[test]
    fn hist_boundary_merge_matches_observe_all() {
        let edges = [0u64, 15, 16, u64::MAX];
        let mut all = Hist::default();
        for &v in &edges {
            all.observe(v);
        }
        let mut a = Hist::default();
        let mut b = Hist::default();
        a.observe(0);
        a.observe(16);
        b.observe(15);
        b.observe(u64::MAX);
        a.merge(&b);
        assert_eq!(a, all);
        for pct in [0u64, 25, 50, 75, 90, 99, 100] {
            assert_eq!(a.quantile(pct), all.quantile(pct), "pct {pct}");
        }
        // And the merged histogram survives a JSON round-trip.
        let mut r = Registry::new();
        r.hists.insert("edges".to_string(), a);
        let back = parse(&r.to_json()).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn hist_summary_stats() {
        let mut h = Hist::default();
        assert_eq!((h.min(), h.max(), h.mean(), h.quantile(99)), (0, 0, 0, 0));
        for v in [2u64, 4, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.min(), 2);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 252);
        assert_eq!(h.quantile(0), 2);
        assert_eq!(h.quantile(50), 4);
        // p100 falls in the bucket containing 1000 (lower bound <= 1000).
        assert!(h.quantile(100) <= 1000);
        assert!(h.quantile(100) > 4);
    }

    #[test]
    fn merge_matches_sequential_observation() {
        let mut all = Hist::default();
        let mut a = Hist::default();
        let mut b = Hist::default();
        for v in 0..100u64 {
            all.observe(v * 37);
            if v % 2 == 0 {
                a.observe(v * 37);
            } else {
                b.observe(v * 37);
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn registry_counters_gauges_hists() {
        let mut r = Registry::new();
        assert!(r.is_empty());
        r.inc("pkts", 2);
        r.inc("pkts", 3);
        r.gauge_max("peak", 10);
        r.gauge_max("peak", 4);
        r.observe("lat", 100);
        assert_eq!(r.counter("pkts"), 5);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("peak"), 10);
        assert_eq!(r.hist("lat").unwrap().count, 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn registry_merge_is_sum_max_and_bucket_merge() {
        let mut a = Registry::new();
        a.inc("c", 1);
        a.gauge_max("g", 5);
        a.observe("h", 7);
        let mut b = Registry::new();
        b.inc("c", 2);
        b.inc("only_b", 9);
        b.gauge_max("g", 3);
        b.observe("h", 100);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("only_b"), 9);
        assert_eq!(a.gauge("g"), 5);
        assert_eq!(a.hist("h").unwrap().count, 2);
        assert_eq!(a.hist("h").unwrap().max(), 100);
    }

    #[test]
    fn json_roundtrips_and_is_stable() {
        let mut r = Registry::new();
        r.inc("rto_cause_color", 2);
        r.inc("data_pkts", 1000);
        r.gauge_max("port_queue_max/n0/p1", 48_000);
        for v in [10u64, 20, 20, 5000] {
            r.observe("pfc_pause_ns/n0/p1", v);
        }
        let json = r.to_json();
        let back = parse(&json).expect("parses");
        assert_eq!(back, r);
        // Byte-stable: re-serializing the parsed registry is identical.
        assert_eq!(back.to_json(), json);
        // Sanity on the wire shape.
        assert!(json.contains("\"schema\": \"tlt-metrics/v1\""), "{json}");
        assert!(json.contains("\"rto_cause_color\": 2"), "{json}");
        // No meta was stamped, so the section is omitted entirely.
        assert!(!json.contains("\"meta\""), "{json}");
    }

    #[test]
    fn meta_roundtrips_and_merges_first_wins() {
        let mut r = Registry::new();
        r.set_meta("scale", "quick");
        r.set_meta("jobs", "any");
        r.inc("c", 1);
        let json = r.to_json();
        assert!(json.contains("\"meta\""), "{json}");
        assert!(json.contains("\"scale\": \"quick\""), "{json}");
        let back = parse(&json).expect("parses");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
        assert_eq!(back.meta_get("jobs"), Some("any"));
        // Merge keeps the receiving side's provenance.
        let mut other = Registry::new();
        other.set_meta("scale", "full");
        other.set_meta("cores", "8");
        let mut merged = r.clone();
        merged.merge(&other);
        assert_eq!(merged.meta_get("scale"), Some("quick"));
        assert_eq!(merged.meta_get("cores"), Some("8"));
    }

    #[test]
    fn malformed_json_is_rejected() {
        for bad in [
            "",
            "{",
            "not json",
            r#"{"schema": "other/v9", "counters": {}, "gauges": {}, "hists": {}}"#,
            r#"{"counters": {"a": 1}}"#, // no schema
            r#"{"schema": "tlt-metrics/v1", "hists": {"h": {"count":2,"sum":0,"min":0,"max":0,"buckets":[[0,1]]}}}"#, // bucket total != count
            r#"{"schema": "tlt-metrics/v1", "hists": {"h": {"count":1,"sum":17,"min":17,"max":17,"buckets":[[17,1]]}}}"#, // 17 is not a bucket boundary
            r#"{"schema": "tlt-metrics/v1", "hists": {"h": {"count":1,"sum":5,"min":9,"max":5,"buckets":[[5,1]]}}}"#, // min above max
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_diagnoses_truncated_and_corrupt_input_without_panicking() {
        let mut r = Registry::new();
        r.set_meta("scale", "quick");
        r.set_meta("label", "a \"quoted\" \\ label, µs");
        r.inc("data_pkts", 41);
        r.inc("odd \"key\" \\ µ", 1);
        r.observe("lat", 100);
        let json = r.to_json();
        assert_eq!(parse(&json).as_ref(), Ok(&r));
        // Truncation at every prefix must fail cleanly, never panic.
        crate::json::assert_every_prefix_rejected(&json, parse);
        let err = parse("{\"schema\\").unwrap_err();
        assert!(err.contains("at byte"), "{err}");
        // Diagnostics carry a position and a reason.
        let err = parse(&json[..json.len() / 2]).unwrap_err();
        assert!(err.contains("byte"), "no position in {err:?}");
        let err = parse("{\"schema\": \"other/v9\"}").unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        let err = parse("{\"schema\": \"tlt-metrics/v1\", \"bogus\": {}}").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        // Bucket-count overflow is an error, not a debug-mode panic.
        let overflow = format!(
            "{{\"schema\": \"tlt-metrics/v1\", \"hists\": {{\"h\": {{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[[0,{m}],[1,{m}]]}}}}}}",
            m = u64::MAX
        );
        let err = parse(&overflow).unwrap_err();
        assert!(err.contains("hist"), "{err}");
        // Trailing garbage after the document is rejected.
        let trailing = format!("{json}garbage");
        assert!(parse(&trailing).is_err());
    }

    #[test]
    fn render_mentions_each_section() {
        let mut r = Registry::new();
        r.inc("c", 1);
        r.gauge_max("g", 2);
        r.observe("h", 3);
        let mut text = String::new();
        r.render_body(&mut text);
        assert!(text.contains("counters"));
        assert!(text.contains("gauges"));
        assert!(text.contains("hists"));
        assert!(text.contains("h "), "{text}");
    }
}
