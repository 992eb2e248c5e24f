//! Cross-seed aggregation and CSV output.

use std::io::Write as _;
use std::path::Path;

/// One quantity measured across several seeds, reported as mean ± std the
/// way the paper does ("average and standard deviation of five runs").
///
/// # Examples
///
/// ```
/// use netstats::Metric;
///
/// let mut m = Metric::new();
/// m.add(1.0);
/// m.add(3.0);
/// assert_eq!(m.mean(), 2.0);
/// assert!(m.std() > 0.0);
/// assert_eq!(format!("{}", m), "2.000e0 ±1.414e0");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Metric {
    values: Vec<f64>,
}

impl Metric {
    /// Creates an empty metric.
    pub fn new() -> Metric {
        Metric::default()
    }

    /// Adds one seed's measurement.
    pub fn add(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of seeds recorded.
    pub fn runs(&self) -> usize {
        self.values.len()
    }

    /// The raw per-seed measurements, in insertion order. Exact equality of
    /// two metrics (e.g. parallel vs sequential execution) is defined by
    /// this sequence.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean across seeds (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Sample standard deviation across seeds.
    pub fn std(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.values.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
            / (self.values.len() - 1) as f64)
            .sqrt()
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3e} ±{:.3e}", self.mean(), self.std())
    }
}

/// Writes `rows` as a CSV file with `headers`, creating parent directories.
///
/// # Examples
///
/// ```no_run
/// netstats::write_csv(
///     "out/fig5.csv",
///     &["scheme", "fg_p999_ms"],
///     &[vec!["DCTCP".into(), "13.0".into()]],
/// ).unwrap();
/// ```
pub fn write_csv(
    path: impl AsRef<Path>,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_statistics() {
        let mut m = Metric::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.std(), 0.0);
        for v in [2.0, 4.0, 6.0] {
            m.add(v);
        }
        assert_eq!(m.runs(), 3);
        assert_eq!(m.mean(), 4.0);
        assert!((m.std() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn csv_round_trip() {
        #[expect(
            clippy::disallowed_methods,
            reason = "a scratch file; its path is never output"
        )]
        let dir = std::env::temp_dir().join("tlt-stats-test");
        let path = dir.join("x.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
