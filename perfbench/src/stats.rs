//! Sample statistics shared by the workloads and the compare mode.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (the sample cannot support it).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// First and third quartiles, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut x = samples.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        let v = x.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Arithmetic mean (`NaN` for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // ceil(0.99 * 1000) = 990: exactly ten samples lie beyond.
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        // One sample fewer leaves only nine beyond p99.
        assert_eq!(percentile(&xs[..999], 0.99), None);
        // The median of 20 samples has ten beyond it; of 19, nine.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        let a = percentile(&xs, 0.5);
        xs.reverse();
        assert_eq!(a, percentile(&xs, 0.5));
        assert_eq!(a, Some(49.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
