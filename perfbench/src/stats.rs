//! Order statistics over timing samples.

/// A sorted copy of `values` (total order, so a NaN cannot scramble it).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle samples for an even count.
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three cut points `[q1, q2, q3]`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method). `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The interquartile distance as a share of the median — the spread a
/// bound is checked against. `None` below two samples or at a zero
/// median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m)
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_SAMPLES_BEYOND`] samples
/// beyond it: the eleventh-largest sample, returned as
/// `(percentile, value)` where the percentile is the share of samples
/// at or below it. `None` with too few samples to have such a tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_SAMPLES_BEYOND {
        return None;
    }
    let rank = n - TAIL_SAMPLES_BEYOND;
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

/// Nearest-rank percentile `q` in `(0, 1]`: the smallest sample with at
/// least a share `q` of the samples at or below it. `None` for no
/// samples.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_edge_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[1.0]), None);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of short samples.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles(range(1, 12), n=4) == [3.0, 6.0, 9.0]
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(quartiles(&eleven), Some([3.0, 6.0, 9.0]));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&ten), Some((8.25 - 2.75) / 5.5));
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(relative_spread(&[7.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            tail(&ten),
            None,
            "ten samples leave nothing with ten beyond"
        );
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let (p, v) = tail(&eleven).unwrap();
        assert_eq!(v, 1.0, "the smallest of eleven has exactly ten beyond");
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        let beyond = hundred.iter().filter(|&&x| x > 90.0).count();
        assert_eq!(beyond, TAIL_SAMPLES_BEYOND);
    }

    #[test]
    fn nearest_rank_percentile() {
        assert_eq!(percentile(&[], 0.99), None);
        assert_eq!(percentile(&[4.0], 0.5), Some(4.0));
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), Some(99.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred, 1.0), Some(100.0));
    }
}
