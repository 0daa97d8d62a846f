//! Order statistics and aggregation rules shared by every metric.

/// The median of `xs` (mean of the middle pair for even lengths); NaN
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` with linear interpolation between order
/// statistics (the rule of Python's `statistics.quantiles(...,
/// method="inclusive")`); NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if frac == 0.0 {
        // Exact, also for infinite samples (failed requests).
        v[lo]
    } else {
        v[lo] + (v[lo + 1] - v[lo]) * frac
    }
}

/// Interquartile range as a share of the median: the spread a run
/// reports next to each median.
pub fn rel_iqr(xs: &[f64]) -> f64 {
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

/// Geometric mean, so that no single long kernel dominates an aggregate
/// over kernels; NaN when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The percentiles a latency can be reported at.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten samples beyond it in a sample of `n`, or `None` when even the
/// median does not. A tail estimated from fewer than ten samples is one
/// outlier wide.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The nearest-rank `p`-th percentile of `xs`, refused (`None`) unless
/// [`tail_percentile`] allows `p` for this sample size.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if tail_percentile(xs.len())? < p {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), None);
        let xs: Vec<f64> = (1..=1_000).map(f64::from).collect();
        // Exactly ten samples (991..=1000) lie beyond the 990th.
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&xs, 50.0), Some(500.0));
    }

    #[test]
    fn geomean_aggregates_ratios_evenly() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        // A 100x longer kernel moves the aggregate as much as a 100x
        // shorter one, in the opposite direction.
        assert!((geomean(&[100.0, 0.01]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn quantiles_match_python_inclusive_method() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert!((rel_iqr(&xs) - 2.0 / 3.0).abs() < 1e-12);
    }
}
