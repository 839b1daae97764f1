//! Order statistics for latency samples.
//!
//! One rule governs every reported tail: a percentile is only reported
//! when at least ten samples lie beyond it ([`supported_percentile`]),
//! so a "p99" over 120 samples (one sample beyond it) is never printed
//! as if it meant something.

/// Linear-interpolation percentile (`p` in `[0, 100]`) of an unsorted
/// sample; `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let (first, last) = (*sorted.first()?, *sorted.last()?);
    if sorted.len() == 1 || p <= 0.0 {
        return Some(first);
    }
    if p >= 100.0 {
        return Some(last);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median; `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The first and third quartiles by the "exclusive" method, the default
/// of Python's `statistics.quantiles(values, n=4)`, so a spread computed
/// here matches one computed by a script over the same values. Needs at
/// least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    // Python: m = n + 1; j = i*m // 4 clamped to 1..n-1; delta = i*m - 4j
    // (not clamped, so the ends extrapolate); interpolate data[j-1..=j].
    let q = |i: i64| {
        let (len, m) = (n as i64, n as i64 + 1);
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// a benchmark bound is compared against.
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The highest of the conventional percentiles (50, 90, 99, 99.9) that
/// has at least ten samples beyond it in a sample of `n`; `None` when not
/// even the median does (fewer than 20 samples).
pub fn supported_percentile(n: usize) -> Option<f64> {
    // Per-mille integers: `1 - 0.9` is not exactly 0.1 in floating point.
    [999u64, 990, 900, 500]
        .into_iter()
        .find(|&pm| n as u64 * (1000 - pm) >= 10 * 1000)
        .map(|pm| pm as f64 / 10.0)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&xs, 25.0), Some(1.75));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        // Two samples extrapolate: quantiles([1, 2]) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&xs).expect("ten samples");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }
}
