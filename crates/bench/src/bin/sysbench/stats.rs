//! Order statistics shared by the runner, the ledger and `compare`.

/// Ascending copy; NaNs (never produced by a timer) would sort last.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linearly interpolated quantile (`q` in 0..=1) of an ascending slice;
/// 0.0 for an empty one so an unused layer reads as zero, not as a panic.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Smallest value; 0.0 for an empty slice, like the quantiles.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// 90th percentile and how many samples lie beyond it (the guide asks for
/// at least ten before a percentile is trusted; callers print the count).
pub fn p90(values: &[f64]) -> (f64, usize) {
    let s = sorted(values);
    let p = quantile_sorted(&s, 0.9);
    (p, s.iter().filter(|&&v| v > p).count())
}

/// `stat` of every window of `w` consecutive samples (all of them as one
/// window when there are fewer), stepping an eighth of a window at a time.
pub fn windows(samples: &[f64], w: usize, stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    if samples.is_empty() {
        return Vec::new();
    }
    let w = w.clamp(1, samples.len());
    (0..=samples.len() - w).step_by((w / 8).max(1)).map(|i| stat(&samples[i..i + w])).collect()
}

/// First quartile, median, third quartile and sample count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Inter-quartile distance as a share of the median — the spread the
    /// acceptance rule compares against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Quartiles by the rule of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method), so `compare` reads the spread the way the driver does.
pub fn quartiles(values: &[f64]) -> Quartiles {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return Quartiles { q1: v, median: v, q3: v, n };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Quartiles { q1: cut(1), median: cut(2), q3: cut(3), n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!((min(&[3.0, 1.0, 2.0]), min(&[])), (1.0, 0.0));
        assert_eq!((mean(&[3.0, 1.0, 2.0]), mean(&[])), (2.0, 0.0));
        let s = sorted(&[10.0, 0.0, 5.0]);
        assert_eq!(quantile_sorted(&s, 0.0), 0.0);
        assert_eq!(quantile_sorted(&s, 1.0), 10.0);
        assert_eq!(quantile_sorted(&s, 0.25), 2.5);
    }

    #[test]
    fn windows_slide_over_consecutive_samples() {
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(
            windows(&v, 4, median),
            (0..=16).map(|i| f64::from(i) + 1.5).collect::<Vec<_>>()
        );
        assert_eq!(windows(&v, 16, |w| w[0]), [0.0, 2.0, 4.0], "long windows step w/8");
        assert_eq!(windows(&v[..3], 8, |w| w.len() as f64), [3.0], "short series: one window");
        assert!(windows(&[], 8, median).is_empty());
    }

    #[test]
    fn p90_counts_the_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, beyond) = p90(&v);
        assert!((p - 90.1).abs() < 1e-9, "{p}");
        assert_eq!(beyond, 10);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let q = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 4.0));
        let one = quartiles(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
    }
}
