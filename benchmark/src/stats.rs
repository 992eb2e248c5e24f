//! Order statistics over a handful of reps.

/// Min, quartiles and count of a sample. With fewer than eleven values no
/// higher percentile is claimed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a percentage of the median.
    pub fn spread_pct(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median * 100.0
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method), so the spread printed here is the one the
/// driver's acceptance check sees. A single value is its own quartiles.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quart = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Summary {
        n,
        min: *v.first()?,
        q1: quart(1),
        median: quart(2),
        q3: quart(3),
    })
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.n, s.min), (5, 1.0));
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        let s = summarize(&[4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_value_and_empty() {
        let s = summarize(&[7.5]).unwrap();
        assert_eq!((s.min, s.q1, s.median, s.q3), (7.5, 7.5, 7.5, 7.5));
        assert_eq!(s.spread_pct(), 0.0);
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[90.0, 100.0, 110.0]).unwrap();
        assert_eq!(s.median, 100.0);
        assert!((s.spread_pct() - 20.0).abs() < 1e-9);
    }
}
