//! Order statistics for the benchmark's reports.

/// Mean of `xs` without its lowest and highest tenth (zero for none).
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile distance over the median, with the quartiles Python's
/// `statistics.quantiles(xs, n=4)` gives (its default exclusive method).
/// Zero for fewer than two samples.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / med
}

/// The tail percentile a sample of `n` supports: 99, or the highest
/// percentile that still has at least ten samples beyond it.
pub fn tail_pct(n: usize) -> f64 {
    if n >= 1000 {
        99.0
    } else {
        (100.0 * (1.0 - 10.0 / n as f64)).max(0.0)
    }
}

/// Nearest-rank percentile of ascending `sorted` data.
pub fn percentile<T: Copy + Default>(sorted: &[T], pct: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 3.0 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_each_side() {
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        xs[9] = 1000.0;
        assert_eq!(trimmed_mean(&xs), (2..=9).sum::<i32>() as f64 / 8.0);
        assert_eq!(trimmed_mean(&[3.0]), 3.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_pct(5000), 99.0);
        assert_eq!(tail_pct(500), 98.0);
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
    }
}
