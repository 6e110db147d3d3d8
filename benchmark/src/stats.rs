//! Order statistics with the reporting rule the ledger uses: a
//! percentile is reported only when at least ten samples lie beyond it.

/// Samples required beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle ones for an even count).
/// Panics on an empty slice: every caller has at least one pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The best (smallest) of repeated timings of the same work. Every
/// disturbance on a shared box — a busy sibling core, a frequency dip —
/// makes a pass slower and none makes it faster, so the minimum is the
/// estimate least moved by them; on the reference box the median of
/// three 3 s passes spread 26 % across runs where the minimum of nine
/// 1 s passes spread 11 % (README, "Steadiness").
pub fn best(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "best of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `q`-th percentile (0 < q < 1) of `sorted`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it — with 454 samples a
/// "p99" would be set by four of them.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let beyond = (n as f64 * (1.0 - q)).floor() as usize;
    if beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[n - 1 - beyond])
}

/// [`percentile`] over nanosecond samples, sorting them first.
pub fn percentile_ns(samples: &mut [u64], q: f64) -> Option<f64> {
    samples.sort_unstable();
    let as_f: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    percentile(&as_f, q)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes
/// them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (0 below two
/// values).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1).abs() / median(values).abs(),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(989.0));
        // 999 samples leave only nine beyond p99.
        assert_eq!(percentile(&many[..999], 0.99), None);
        // The median needs twenty samples.
        assert_eq!(percentile(&many[..20], 0.5), Some(9.0));
        assert_eq!(percentile(&many[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
