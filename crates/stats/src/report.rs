//! Cross-seed aggregation. The CSV a binary prints is written by
//! `bench`'s `Table::finish`.

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
}
