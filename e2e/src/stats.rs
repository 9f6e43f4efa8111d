//! The harness's own arithmetic: medians, quartiles, and the rule that
//! decides which tail percentile a sample is large enough to support.

/// Sorted copy of `v` (total order; the harness never produces NaN).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median of `f` over `items`.
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<f64>>())
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them, because that is what
/// the acceptance check uses.
///
/// # Panics
/// Panics with fewer than two samples, like the Python function.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(v.len() >= 2, "quartiles need at least two samples");
    let s = sorted(v);
    let n = s.len();
    let q = |i: usize| {
        // j = i*(n+1) // 4 clamped to [1, n-1]; delta = i*(n+1) - 4j.
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (4 * j) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Quartile spread as a share of the median: `(q3 - q1) / q2`.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(v);
    (q3 - q1) / q2
}

/// Nearest-rank percentile (`p` in per mille, so 900 = p90).
pub fn percentile_permille(v: &[f64], p: u32) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let s = sorted(v);
    let rank = (s.len() as u64 * p as u64).div_ceil(1000).max(1) as usize;
    s[rank - 1]
}

/// Percentiles the harness is willing to report beyond the median, in
/// per mille.
const TAILS: [u32; 5] = [750, 900, 950, 990, 999];

/// The highest percentile (per mille) that has at least ten samples
/// beyond it among `n`, or `None` when not even p75 does — a p99 over
/// 128 samples is the maximum of one, not a percentile.
pub fn supported_tail(n: usize) -> Option<u32> {
    TAILS
        .iter()
        .copied()
        .filter(|&p| n as u64 * (1000 - p) as u64 / 1000 >= 10)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(spread(&v), 1.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_permille(&v, 500), 50.0);
        assert_eq!(percentile_permille(&v, 900), 90.0);
        assert_eq!(percentile_permille(&v, 999), 100.0);
        assert_eq!(percentile_permille(&[7.0], 900), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(10), None);
        assert_eq!(supported_tail(20), None, "p75 of 20 has only 5 beyond");
        assert_eq!(supported_tail(40), Some(750));
        assert_eq!(
            supported_tail(128),
            Some(900),
            "12 beyond p90, 6 beyond p95"
        );
        assert_eq!(supported_tail(1000), Some(990));
        assert_eq!(supported_tail(10_000), Some(999));
        assert_eq!(
            (supported_tail(99), supported_tail(100)),
            (Some(750), Some(900))
        );
    }
}
