//! `compare A.json B.json`: the benchmark's own bounds applied to two
//! result files, plus the human table `collect` prints.
//!
//! Exact counts (*C*) must be equal. End-to-end metrics may worsen by their
//! bound; a timing measured with a rep spread wider than its bound is
//! `unresolved`, never `unchanged`. Spans, kernels and derived metrics carry
//! no bound and are not judged.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::metrics::{self, Better, Source};

pub const SCHEMA: &str = "tlt-benchmark/v1";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
    /// An exact count differs.
    Changed,
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

fn metric_value(w: &Value, name: &str) -> Option<f64> {
    w.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Judges every bounded or exact metric present in `a`. `Err` means the two
/// documents cannot be compared at all (wrong schema, missing entries).
pub fn judge(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    for (doc, which) in [(a, "A"), (b, "B")] {
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("{which}: not a {SCHEMA} result file"));
        }
    }
    fn workloads<'a>(doc: &'a Value, which: &str) -> Result<&'a Value, String> {
        doc.get("workloads")
            .filter(|w| matches!(w, Value::Obj(_)))
            .ok_or_else(|| format!("{which}: missing \"workloads\" object"))
    }
    let (wa, wb) = (workloads(a, "A")?, workloads(b, "B")?);
    let mut rows = Vec::new();
    for (name, ea) in wa.entries() {
        let eb = wb
            .get(name)
            .ok_or_else(|| format!("B: workload {name} is missing"))?;
        let spread = |w: &Value| metric_value(w, "harness.rep_spread_pct").unwrap_or(0.0);
        let spread_pct = spread(ea).max(spread(eb));
        for (metric, _) in ea.get("metrics").map_or(&[][..], Value::entries) {
            let Some(def) = metrics::find(metric) else {
                continue;
            };
            let va = metric_value(ea, metric)
                .ok_or_else(|| format!("A: {name}.{metric} has no numeric value"))?;
            let vb = metric_value(eb, metric)
                .ok_or_else(|| format!("B: {name}.{metric} is missing or not a number"))?;
            let verdict = match (def.source, def.bound) {
                (Source::Count, _) => {
                    if va == vb {
                        Verdict::Unchanged
                    } else {
                        Verdict::Changed
                    }
                }
                (Source::EndToEnd, Some(bound)) => {
                    let worse = match def.better {
                        Better::Lower => (vb - va) / va,
                        Better::Higher => (va - vb) / va,
                    };
                    let is_timing = matches!(def.unit, "s" | "1/s");
                    if is_timing && spread_pct > bound * 100.0 {
                        Verdict::Unresolved
                    } else if worse > bound {
                        Verdict::Regressed
                    } else if worse < -bound {
                        Verdict::Improved
                    } else {
                        Verdict::Unchanged
                    }
                }
                _ => continue,
            };
            rows.push(Row {
                workload: name.clone(),
                metric: metric.clone(),
                a: va,
                b: vb,
                verdict,
            });
        }
    }
    Ok(rows)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let rows = judge(&load(a)?, &load(b)?)?;
    let mut bad = 0;
    let mut unresolved = 0;
    println!(
        "{:<18} {:<30} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "B vs A"
    );
    for r in &rows {
        let end_to_end = metrics::find(&r.metric).is_some_and(|m| m.bound.is_some());
        match r.verdict {
            Verdict::Regressed | Verdict::Changed => bad += 1,
            Verdict::Unresolved => unresolved += 1,
            _ => {}
        }
        // Every end-to-end row is shown; exact counts only when they moved.
        if end_to_end || r.verdict == Verdict::Changed {
            println!(
                "{:<18} {:<30} {:>16} {:>16} {:>+8.2}%  {}",
                r.workload,
                r.metric,
                fmt_num(r.a),
                fmt_num(r.b),
                if r.a == 0.0 {
                    0.0
                } else {
                    (r.b - r.a) / r.a * 100.0
                },
                format!("{:?}", r.verdict).to_lowercase()
            );
        }
    }
    println!(
        "{} metrics judged: {bad} regressed or changed, {unresolved} unresolved",
        rows.len()
    );
    Ok(if bad > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 1e6 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

/// Every metric by name with its unit, one column per workload.
pub fn table(workloads: &[(String, Value)]) -> String {
    let mut s = String::new();
    let _ = write!(s, "{:<32} {:>6}", "metric", "unit");
    for (name, _) in workloads {
        let _ = write!(s, " {name:>16}");
    }
    s.push('\n');
    for def in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
        let _ = write!(s, "{:<32} {:>6}", def.name, def.unit);
        for (_, w) in workloads {
            let cell = metric_value(w, def.name).map_or("-".to_string(), fmt_num);
            let _ = write!(s, " {cell:>16}");
        }
        s.push('\n');
    }
    let _ = write!(s, "{:<32} {:>6}", "correct", "");
    for (_, w) in workloads {
        let ok = w.get("correct").and_then(Value::as_bool) == Some(true);
        let _ = write!(s, " {:>16}", if ok { "yes" } else { "NO" });
    }
    s.push('\n');
    s
}

/// Indented JSON; objects and arrays of scalars stay on one line.
pub fn pretty(v: &Value) -> String {
    fn scalar(v: &Value) -> bool {
        !matches!(v, Value::Obj(_) | Value::Arr(_))
    }
    fn go(v: &Value, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        match v {
            Value::Obj(kv) if !kv.iter().all(|(_, v)| scalar(v)) => {
                out.push_str("{\n");
                for (i, (k, v)) in kv.iter().enumerate() {
                    out.push_str(&pad);
                    Value::Str(k.clone()).write(out);
                    out.push_str(": ");
                    go(v, depth + 1, out);
                    out.push_str(if i + 1 < kv.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            Value::Arr(items) if !items.iter().all(scalar) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&pad);
                    go(v, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            flat => flat.write(out),
        }
    }
    let mut out = String::new();
    go(v, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn doc(wall_s: f64, drops: f64, spread: f64) -> Value {
        let m = |v: f64| obj([("value", Value::Num(v)), ("unit", Value::Str("x".into()))]);
        obj([
            ("schema", Value::Str(SCHEMA.into())),
            (
                "workloads",
                obj([(
                    "mix_tcp",
                    obj([
                        ("correct", Value::Bool(true)),
                        (
                            "metrics",
                            obj([
                                ("wall_s", m(wall_s)),
                                ("pkts_per_s", m(1e6 / wall_s)),
                                ("netsim.switch.drops", m(drops)),
                                ("dcsim.run_s", m(wall_s * 0.9)),
                                ("harness.rep_spread_pct", m(spread)),
                            ]),
                        ),
                    ]),
                )]),
            ),
            ("claim", Value::Null),
        ])
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn same_numbers_are_unchanged_and_survive_a_file_round_trip() {
        let a = doc(1.0, 42.0, 3.0);
        let b = json::parse(&pretty(&a)).unwrap();
        assert_eq!(a, b, "pretty output parses back to the same document");
        let rows = judge(&a, &b).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unchanged));
        // Spans are not judged.
        assert!(rows.iter().all(|r| r.metric != "dcsim.run_s"));
    }

    #[test]
    fn bounds_direction_counts_and_spread() {
        // Twice as slow: wall_s (lower is better) doubles, pkts_per_s
        // (higher is better) halves; both are past any bound <= 0.25.
        let rows = judge(&doc(1.0, 42.0, 3.0), &doc(2.0, 42.0, 3.0)).unwrap();
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "pkts_per_s"), Verdict::Regressed);
        let rows = judge(&doc(2.0, 42.0, 3.0), &doc(1.0, 42.0, 3.0)).unwrap();
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Improved);
        assert_eq!(verdict(&rows, "pkts_per_s"), Verdict::Improved);
        // Within the bound.
        let rows = judge(&doc(1.0, 42.0, 3.0), &doc(1.01, 42.0, 3.0)).unwrap();
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Unchanged);
        // A count that moved is reported whatever its size.
        let rows = judge(&doc(1.0, 42.0, 3.0), &doc(1.0, 43.0, 3.0)).unwrap();
        assert_eq!(verdict(&rows, "netsim.switch.drops"), Verdict::Changed);
        // Rep spread wider than the bound: the timing cannot be resolved.
        let wide = metrics::find("wall_s").unwrap().bound.unwrap() * 100.0 + 1.0;
        let rows = judge(&doc(1.0, 42.0, 3.0), &doc(2.0, 42.0, wide)).unwrap();
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Unresolved);
        assert_eq!(verdict(&rows, "netsim.switch.drops"), Verdict::Unchanged);
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        let good = doc(1.0, 1.0, 1.0);
        for bad in [
            Value::Null,
            obj([("schema", Value::Str("other/v9".into()))]),
            obj([("schema", Value::Str(SCHEMA.into()))]),
            obj([
                ("schema", Value::Str(SCHEMA.into())),
                ("workloads", obj([])),
            ]),
        ] {
            assert!(judge(&good, &bad).is_err(), "{bad:?}");
        }
        assert!(judge(&Value::Arr(vec![]), &good).is_err());
    }
}
